// Package workload provides the six evaluation kernels of Table III —
// reduction, matrix multiply, convolution, DCT, merge sort and k-mean —
// as phase programs: sequences of sequential-compute, parallel-compute
// and data-transfer phases whose instruction counts, communication
// counts and initial transfer sizes match the paper exactly.
//
// Because the evaluation depends only on instruction counts, mixes,
// memory footprints and communication volume (the paper's traces carry
// no program semantics either), the trace streams are synthesised
// deterministically per kernel with per-kernel instruction mixes and
// access patterns. See DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"

	"heteromem/internal/addrspace"
	"heteromem/internal/locality"
	"heteromem/internal/trace"
)

// PhaseKind classifies a program phase.
type PhaseKind uint8

const (
	// Sequential runs CPU-only serial code.
	Sequential PhaseKind = iota
	// Parallel runs the CPU and GPU halves concurrently (the paper
	// divides computational work evenly between the PUs).
	Parallel
	// Transfer logically moves data between the PUs' memories; the
	// system under evaluation decides its cost.
	Transfer
)

func (k PhaseKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	case Transfer:
		return "transfer"
	default:
		return fmt.Sprintf("phase(%d)", uint8(k))
	}
}

// Direction of a transfer phase.
type Direction uint8

const (
	// HostToDevice moves data from CPU memory to GPU memory.
	HostToDevice Direction = iota
	// DeviceToHost moves data from GPU memory to CPU memory.
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "h2d"
	}
	return "d2h"
}

// Phase is one step of a program.
//
// A compute phase carries its traces in one of two forms: materialized
// streams in CPU/GPU (Generate, LoadProgram), or restartable generators
// (Open) that synthesize the identical instructions on demand. Consumers
// replay either form through CPUSource/GPUSource and size work with
// CPULen/GPULen.
type Phase struct {
	Kind PhaseKind
	// CPU and GPU hold the materialized traces for compute phases (GPU
	// empty for Sequential). Empty for streaming programs built by Open.
	CPU trace.Stream
	GPU trace.Stream
	// Dir and Bytes describe a Transfer phase. Addr is the base of the
	// moved object, so address-space models can track ownership and
	// first-touch state.
	Dir   Direction
	Bytes uint64
	Addr  uint64

	// Generator parameters for streaming programs; nil once materialized.
	cpuGen *genParams
	gpuGen *genParams
}

// CPUSource returns a fresh cursor over the phase's CPU trace, whichever
// form it is stored in. Every call returns an independent source.
func (ph *Phase) CPUSource() trace.Source {
	if ph.cpuGen != nil {
		return ph.cpuGen.source()
	}
	return trace.NewCursor(ph.CPU)
}

// GPUSource returns a fresh cursor over the phase's GPU trace.
func (ph *Phase) GPUSource() trace.Source {
	if ph.gpuGen != nil {
		return ph.gpuGen.source()
	}
	return trace.NewCursor(ph.GPU)
}

// CPULen returns the phase's CPU instruction count without materializing.
func (ph *Phase) CPULen() int {
	if ph.cpuGen != nil {
		return ph.cpuGen.n
	}
	return len(ph.CPU)
}

// GPULen returns the phase's GPU instruction count without materializing.
func (ph *Phase) GPULen() int {
	if ph.gpuGen != nil {
		return ph.gpuGen.n
	}
	return len(ph.GPU)
}

// materialize expands the phase's generators (if any) into in-memory
// streams and drops the generators, converting a streaming phase into the
// serializable form.
func (ph *Phase) materialize() {
	if ph.cpuGen != nil {
		ph.CPU = trace.Materialize(ph.cpuGen.source())
		ph.cpuGen = nil
	}
	if ph.gpuGen != nil {
		ph.GPU = trace.Materialize(ph.gpuGen.source())
		ph.gpuGen = nil
	}
}

// Program is a complete kernel: its phases, the data objects it
// manipulates (for locality planning), and its Table III identity.
type Program struct {
	Name    string
	Pattern string
	Phases  []Phase
	Objects []locality.Object
}

// Characteristics is one row of Table III.
type Characteristics struct {
	Name                 string
	Pattern              string
	CPUInsts             uint64
	GPUInsts             uint64
	SerialInsts          uint64
	Comms                int
	InitialTransferBytes uint64
}

// Characteristics computes the program's Table III row from its phases.
func (p *Program) Characteristics() Characteristics {
	c := Characteristics{Name: p.Name, Pattern: p.Pattern}
	first := true
	for i := range p.Phases {
		ph := &p.Phases[i]
		switch ph.Kind {
		case Sequential:
			c.SerialInsts += uint64(ph.CPULen())
		case Parallel:
			c.CPUInsts += uint64(ph.CPULen())
			c.GPUInsts += uint64(ph.GPULen())
		case Transfer:
			c.Comms++
			if first {
				c.InitialTransferBytes = ph.Bytes
				first = false
			}
		}
	}
	return c
}

// Validate checks the program's structure and every materialized trace.
// Generator-backed phases carry no records to check here: their output is
// pinned instruction-for-instruction against the materialized form by the
// workload tests, and re-synthesizing millions of records on every Run
// would defeat streaming.
func (p *Program) Validate() error {
	for i := range p.Phases {
		ph := &p.Phases[i]
		if err := ph.CPU.Validate(); err != nil {
			return fmt.Errorf("%s phase %d cpu: %w", p.Name, i, err)
		}
		if err := ph.GPU.Validate(); err != nil {
			return fmt.Errorf("%s phase %d gpu: %w", p.Name, i, err)
		}
		switch ph.Kind {
		case Sequential:
			if ph.GPULen() != 0 {
				return fmt.Errorf("%s phase %d: sequential phase has GPU work", p.Name, i)
			}
		case Transfer:
			if ph.Bytes == 0 {
				return fmt.Errorf("%s phase %d: zero-byte transfer", p.Name, i)
			}
			if ph.CPULen() != 0 || ph.GPULen() != 0 {
				return fmt.Errorf("%s phase %d: transfer phase has compute work", p.Name, i)
			}
		}
	}
	return nil
}

// TotalInstructions returns the instruction count across all phases.
func (p *Program) TotalInstructions() uint64 {
	var n uint64
	for i := range p.Phases {
		n += uint64(p.Phases[i].CPULen()) + uint64(p.Phases[i].GPULen())
	}
	return n
}

// Data-layout bases for generated traces. CPU-half data lives in the CPU
// private region, GPU-half data in the GPU private region, merge buffers
// in the shared region, so address-space models see region-appropriate
// traffic.
const (
	cpuDataBase = addrspace.CPUPrivateBase + 1<<20
	gpuDataBase = addrspace.GPUPrivateBase + 1<<20
	shrDataBase = addrspace.SharedBase + 1<<20
)

// TableIII returns the paper's benchmark characteristics verbatim.
func TableIII() []Characteristics {
	return []Characteristics{
		{"reduction", "parallel-merge-sequential", 70006, 70001, 99996, 2, 320512},
		{"matrix-mul", "fully-parallel", 8585229, 8585228, 16384, 2, 524288},
		{"convolution", "parallel-merge-parallel", 448260, 448259, 65536, 3, 65536},
		{"dct", "fully-parallel", 2359298, 2359298, 262144, 2, 262244},
		{"merge-sort", "parallel-merge-sequential", 161233, 157233, 97668, 2, 39936},
		{"k-mean", "parallel-merge-sequential-repeated", 1847765, 1844981, 36784, 6, 136192},
	}
}
