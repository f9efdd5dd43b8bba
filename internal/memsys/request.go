// Package memsys models a memory access as an explicit transaction — a
// Request — flowing through an ordered pipeline of stages (private
// caches, MSHR, ring hops, L3 tile, coherence, DRAM, commit). Each stage
// charges its latency onto the request, so every picosecond of an
// access is attributable to one stage, each stage is unit-testable in
// isolation, and alternatives (a mesh instead of the ring, flush-based
// instead of directory coherence) slot in by swapping one stage.
// Package mem composes these stages into the Table II hierarchy.
package memsys

import (
	"fmt"

	"heteromem/internal/clock"
)

// PU identifies a processing unit issuing requests. The values mirror
// mem.PU (the two packages share the numbering so conversions are
// direct casts).
type PU uint8

const (
	// CPU is the out-of-order general-purpose core.
	CPU PU = iota
	// GPU is the in-order SIMD accelerator core.
	GPU
	// NumPUs is the number of processing units.
	NumPUs
)

func (p PU) String() string {
	switch p {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("pu(%d)", uint8(p))
	}
}

// Flags records which events a request experienced on its way through
// the pipeline.
type Flags uint8

const (
	// FlagL2Hit: the access hit in the CPU's private L2.
	FlagL2Hit Flags = 1 << iota
	// FlagMerged: the access merged with an outstanding miss in the MSHR.
	FlagMerged
	// FlagL3Hit: the access hit in the shared L3.
	FlagL3Hit
	// FlagDRAM: the access went all the way to DRAM.
	FlagDRAM
)

// Request is one memory transaction in flight. A request is issued at
// Issue and carries its running completion time in Now; each stage
// advances Now by the latency it charges.
type Request struct {
	PU    PU
	Addr  uint64
	Line  uint64 // Addr rounded down to the cache-line base
	Write bool
	Issue clock.Time
	Now   clock.Time
	Flags Flags
	// L1Way reports which way of the PU's L1 holds the line after the
	// pipeline filled it (-1 when the request completed without an L1
	// fill, e.g. an MSHR merge or a bypassed install). Callers use it to
	// seed way memoizations without a post-fill set scan; it carries no
	// timing information.
	L1Way int8
	// Shared is the time the request passed the MSHR check and entered
	// the shared path; the commit stage allocates its MSHR entry there.
	// Zero for requests that never reached it.
	Shared clock.Time
}

// Start (re)initialises the request for a new access. Requests are
// reused across accesses, so every field is rewritten here.
func (r *Request) Start(pu PU, addr, line uint64, write bool, now clock.Time) {
	r.PU = pu
	r.Addr = addr
	r.Line = line
	r.Write = write
	r.Issue = now
	r.Now = now
	r.Flags = 0
	r.L1Way = -1
	r.Shared = 0
}

// Latency returns the request's total latency so far.
func (r *Request) Latency() clock.Duration { return r.Now.Sub(r.Issue) }
