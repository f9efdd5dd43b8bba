package memsys

import (
	"time"

	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Chain is the memory request path: the stages of Table II's hierarchy
// in request order — translation, private levels, MSHR merge, request
// ring hop, L3 (with coherence), the terminal backend, response ring hop,
// commit — held as concrete types and invoked directly, so no per-access
// interface dispatch sits on the hot path. mem.Hierarchy builds one per
// PU.
//
// Every executed stage stamps its completion time into r.Stamp, and a
// Done verdict skips the rest.
type Chain struct {
	// Xlat, when non-nil, is the address-translation front-end (the
	// translation axis): every access is translated before it touches
	// the private caches. Nil means translation off — no probe, no
	// branch cost beyond one pointer check.
	Xlat    *TranslationStage
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
	// ProfBase is the profiler section id of the first stage (xlat); the
	// remaining stages follow contiguously in chain order (see
	// ProfSections). mark is the host time of a sampled run's last stage
	// boundary.
	Prof     *obs.HostProf
	ProfBase int
	mark     time.Time
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
	profXlat = iota
	profPrivate
	profMSHR
	profRingReq
	profL3
	profDRAM
	profRingResp
	profCommit
)

// Run processes r through the full chain.
func (c *Chain) Run(r *Request) clock.Time {
	prof := c.Prof.Sample()
	if prof {
		c.mark = time.Now()
	}
	if c.Xlat != nil {
		c.Xlat.Process(r)
		c.stamp(r, StageXlat, prof, profXlat)
	}
	v := c.Private.Process(r)
	c.stamp(r, StagePrivate, prof, profPrivate)
	if v == Done {
		return r.Now
	}
	return c.runShared(r, prof)
}

// RunMissedL1 continues a request whose first-level lookup was already
// performed (and missed) by the caller — the hierarchy's L1-hit fast
// path. r.Now must already include the L1 latency, and when the
// translation axis is on the caller has already translated the address
// (the hierarchy charges Xlat before its L1 probe).
func (c *Chain) RunMissedL1(r *Request) clock.Time {
	prof := c.Prof.Sample()
	if prof {
		c.mark = time.Now()
	}
	v := c.Private.ProcessMissedL1(r)
	c.stamp(r, StagePrivate, prof, profPrivate)
	if v == Done {
		return r.Now
	}
	return c.runShared(r, prof)
}

// runShared is the shared-path tail: MSHR merge, ring hop out, L3 (with
// coherence), the terminal backend, ring hop back, commit.
func (c *Chain) runShared(r *Request, prof bool) clock.Time {
	v := c.MSHR.Process(r)
	c.stamp(r, StageMSHR, prof, profMSHR)
	if v == Done {
		return r.Now
	}
	c.ReqHop.Process(r)
	c.stamp(r, StageRingReq, prof, profRingReq)
	c.L3.Process(r)
	c.stamp(r, StageL3, prof, profL3)
	c.Backend.Process(r)
	c.stamp(r, StageDRAM, prof, profDRAM)
	c.RespHop.Process(r)
	c.stamp(r, StageRingResp, prof, profRingResp)
	c.Commit.Process(r)
	c.stamp(r, StageCommit, prof, profCommit)
	return r.Now
}

// stamp records stage s's completion time and, on a profiled run, adds
// the host time since the last mark to the stage's section. Only real
// time is measured, so a profiled run stays bit-identical to an
// unprofiled one.
func (c *Chain) stamp(r *Request, s StageID, prof bool, off int) {
	r.Stamp[s] = r.Now
	if prof {
		c.lap(off)
	}
}

// lap charges the host time since the last mark to section off and
// moves the mark; it stays out of stamp so stamp inlines.
func (c *Chain) lap(off int) {
	now := time.Now()
	c.Prof.Add(c.ProfBase+off, now.Sub(c.mark))
	c.mark = now
}
