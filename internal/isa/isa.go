// Package isa defines the trace instruction set understood by the
// simulator cores. It is not a real machine ISA: like MacSim's trace
// format, it captures the dynamic instruction classes whose timing
// matters to a memory-system study (ALU vs. floating point vs. memory vs.
// branch), plus the paper's special instructions that model library and
// operating-system effects (Section IV-C, Table IV) and explicit locality
// control (push, Section II-B).
package isa

import "fmt"

// Kind classifies a dynamic trace instruction.
type Kind uint8

// Compute, control and memory instruction kinds. The SIMD variants are
// executed by the GPU's 8-wide datapath: one SIMD instruction performs
// the operation on every active lane.
const (
	// Nop performs no work; used for padding and testing.
	Nop Kind = iota
	// ALU is integer arithmetic/logic (1-cycle on both PUs).
	ALU
	// Mul is integer multiply.
	Mul
	// Div is integer divide.
	Div
	// FP is floating-point arithmetic.
	FP
	// FDiv is floating-point divide/sqrt.
	FDiv
	// Load reads memory through the data-cache hierarchy.
	Load
	// Store writes memory through the data-cache hierarchy.
	Store
	// Branch is a conditional branch. The CPU predicts it with gshare; the
	// GPU has no predictor and stalls until the branch resolves (Table II:
	// "stall on branch").
	Branch
	// SIMDALU is an 8-wide integer operation (GPU only).
	SIMDALU
	// SIMDFP is an 8-wide floating-point operation (GPU only).
	SIMDFP
	// SIMDLoad is an 8-wide gather; consecutive lane addresses coalesce
	// into cache-line requests.
	SIMDLoad
	// SIMDStore is an 8-wide scatter.
	SIMDStore
	// SWLoad reads the GPU's software-managed cache (fixed latency, never
	// misses; data must have been placed there by an explicit push).
	SWLoad
	// SWStore writes the GPU's software-managed cache.
	SWStore
	// Barrier is an intra-PU synchronisation point: the core drains all
	// outstanding memory operations before proceeding.
	Barrier
)

// Special instructions modeling programming-model and library effects.
// Their execution latency comes from config.CommParams (Table IV), not
// from the latency table below.
const (
	// APIPCI models a memory copy API using PCI-E (api-pci): latency
	// 33250 cycles plus transfer bytes at the PCI-E 2.0 rate. Used by the
	// CPU+GPU(CUDA) and GMAC systems.
	APIPCI Kind = iota + 64
	// APIAcquire models an ownership-acquire action in the partially
	// shared space (api-acq, LRB): 1000 cycles.
	APIAcquire
	// APIRelease models an ownership-release action; the paper folds its
	// cost into api-acq, so it uses the same latency class.
	APIRelease
	// APITransfer models a data-transfer function into/out of the
	// partially shared space (api-tr, LRB): 7000 cycles.
	APITransfer
	// LibPageFault models the library cost of handling a page fault on
	// first touch of shared data (lib-pf, LRB): 42000 cycles.
	LibPageFault
	// Push explicitly places data into a chosen level of the cache
	// hierarchy (the paper's push locality-control statement).
	Push
)

// NumKinds is one past the largest Kind value, for sizing count arrays.
const NumKinds = int(Push) + 1

// kindNames is indexed by Kind; an empty entry marks an undefined value,
// so Valid and String are an array read rather than a map probe.
var kindNames = [NumKinds]string{
	Nop: "nop", ALU: "alu", Mul: "mul", Div: "div", FP: "fp", FDiv: "fdiv",
	Load: "load", Store: "store", Branch: "branch",
	SIMDALU: "simd.alu", SIMDFP: "simd.fp", SIMDLoad: "simd.load", SIMDStore: "simd.store",
	SWLoad: "sw.load", SWStore: "sw.store", Barrier: "barrier",
	APIPCI: "api-pci", APIAcquire: "api-acq", APIRelease: "api-rel",
	APITransfer: "api-tr", LibPageFault: "lib-pf", Push: "push",
}

func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AllKinds returns every defined instruction kind in ascending order,
// for exhaustive tests and count tables.
func AllKinds() []Kind {
	return []Kind{
		Nop, ALU, Mul, Div, FP, FDiv, Load, Store, Branch,
		SIMDALU, SIMDFP, SIMDLoad, SIMDStore, SWLoad, SWStore, Barrier,
		APIPCI, APIAcquire, APIRelease, APITransfer, LibPageFault, Push,
	}
}

// Valid reports whether k is a defined instruction kind.
func (k Kind) Valid() bool {
	return int(k) < NumKinds && kindNames[k] != ""
}

// IsMem reports whether k accesses the data-cache hierarchy.
func (k Kind) IsMem() bool {
	switch k {
	case Load, Store, SIMDLoad, SIMDStore:
		return true
	}
	return false
}

// IsLoad reports whether k reads memory (hierarchy or software-managed).
func (k Kind) IsLoad() bool {
	switch k {
	case Load, SIMDLoad, SWLoad:
		return true
	}
	return false
}

// IsStore reports whether k writes memory (hierarchy or software-managed).
func (k Kind) IsStore() bool {
	switch k {
	case Store, SIMDStore, SWStore:
		return true
	}
	return false
}

// IsSIMD reports whether k is an 8-wide GPU operation.
func (k Kind) IsSIMD() bool {
	switch k {
	case SIMDALU, SIMDFP, SIMDLoad, SIMDStore:
		return true
	}
	return false
}

// IsComm reports whether k is a special communication/library-effect
// instruction whose latency is a Table IV parameter.
func (k Kind) IsComm() bool {
	switch k {
	case APIPCI, APIAcquire, APIRelease, APITransfer, LibPageFault:
		return true
	}
	return false
}

// IsSoftwareCache reports whether k targets the GPU's software-managed
// cache rather than the hardware hierarchy.
func (k Kind) IsSoftwareCache() bool { return k == SWLoad || k == SWStore }

// ExecLatency returns the fixed execution latency in core cycles for
// compute instructions. Memory and communication instructions return 0
// here because their latency is determined by the memory system or the
// communication fabric, respectively.
func (k Kind) ExecLatency() uint64 {
	switch k {
	case Nop, Barrier, Push:
		return 1
	case ALU, SIMDALU, Branch:
		return 1
	case Mul:
		return 3
	case FP, SIMDFP:
		return 4
	case Div:
		return 20
	case FDiv:
		return 24
	default:
		return 0
	}
}
