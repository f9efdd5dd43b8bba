package memsys

import (
	"time"

	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Chain is the memory request path below a PU's first-level cache: the
// stages of Table II's hierarchy in request order — private L2, MSHR
// merge, request ring hop, L3 (with coherence), the terminal backend,
// response ring hop, commit — held as concrete types and invoked
// directly, so no per-access interface dispatch sits on the hot path.
// mem.Hierarchy builds one per PU and translates and probes the L1
// itself before entering it through RunMissedL1.
//
// A Done verdict skips the rest of the chain.
type Chain struct {
	Private *PrivateStage
	MSHR    *MSHRStage
	ReqHop  *RingHopStage
	L3      *L3Stage
	// Backend is the terminal memory stage (the mem_tech axis): the
	// DDR3 DRAMStage by default, or an HBM/NVM/DRAM-cache stage. This
	// is the chain's one interface slot — it sits on the L3-miss path
	// only, so the dispatch never touches the L1-hit fast path.
	Backend Backend
	RespHop *RingHopStage
	Commit  *CommitStage

	// Prof, when non-nil, attributes sampled HOST wall-clock time to the
	// chain's stages: one in every Prof.Every() runs reads the host clock
	// after each stage, so a sweep can see which simulation stage burns
	// real time without paying a clock read per stage on every access.
	// ProfBase is the profiler section id of the first section (xlat,
	// which no chain stage charges: the hierarchy translates before its
	// L1 probe); the stage sections follow contiguously in chain order
	// (see ProfSections). last is the host time of a sampled run's last
	// stage boundary.
	Prof     *obs.HostProf
	ProfBase int
	last     time.Time
}

// ProfSections lists the chain's host-profiling section names in stage
// order. Hierarchies register them contiguously so ProfBase+offset
// addresses each stage.
func ProfSections() []string {
	return []string{
		"memsys.xlat", "memsys.private", "memsys.mshr", "memsys.ring_req",
		"memsys.l3", "memsys.dram", "memsys.ring_resp", "memsys.commit",
	}
}

// Offsets of each stage's profiler section from ProfBase, matching
// ProfSections order.
const (
	_ = iota // memsys.xlat
	profPrivate
	profMSHR
	profRingReq
	profL3
	profDRAM
	profRingResp
	profCommit
)

// RunMissedL1 continues a request whose first-level lookup was already
// performed (and missed) by the caller — the hierarchy's L1-hit fast
// path. r.Now must already include the L1 latency, and when the
// translation axis is on the caller has already translated the address.
func (c *Chain) RunMissedL1(r *Request) clock.Time {
	prof := c.Prof.Sample()
	if prof {
		c.last = time.Now()
	}
	v := c.Private.ProcessMissedL1(r)
	c.mark(prof, profPrivate)
	if v == Done {
		return r.Now
	}
	return c.runShared(r, prof)
}

// runShared is the shared-path tail: MSHR merge, ring hop out, L3 (with
// coherence), the terminal backend, ring hop back, commit.
func (c *Chain) runShared(r *Request, prof bool) clock.Time {
	v := c.MSHR.Process(r)
	c.mark(prof, profMSHR)
	if v == Done {
		return r.Now
	}
	r.Shared = r.Now
	c.ReqHop.Process(r)
	c.mark(prof, profRingReq)
	c.L3.Process(r)
	c.mark(prof, profL3)
	c.Backend.Process(r)
	c.mark(prof, profDRAM)
	c.RespHop.Process(r)
	c.mark(prof, profRingResp)
	c.Commit.Process(r)
	c.mark(prof, profCommit)
	return r.Now
}

// mark ends a stage: on a profiled run it adds the host time since the
// last mark to the stage's section. Only real time is measured, so a
// profiled run stays bit-identical to an unprofiled one.
func (c *Chain) mark(prof bool, off int) {
	if prof {
		c.lap(off)
	}
}

// lap charges the host time since the last mark to section off and
// moves the mark; it stays out of mark so mark inlines.
func (c *Chain) lap(off int) {
	now := time.Now()
	c.Prof.Add(c.ProfBase+off, now.Sub(c.last))
	c.last = now
}
