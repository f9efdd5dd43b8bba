package memsys

import (
	"fmt"

	"heteromem/internal/clock"
	"heteromem/internal/obs"
	"heteromem/internal/xlat"
)

// TranslationStage is the per-PU address-translation front-end — the
// timed realisation of an xlat.Spec. Every core-issued access probes
// the issuing PU's TLB; a hit is free (the probe overlaps the L1
// lookup), a miss charges a multi-level page walk through the PU's
// walker resource, so concurrent walks on a shared MMU serialise
// exactly like banked DRAM or the shared ring. An optional walk cache
// short-circuits all but the last level; the IOMMU path (devices behind
// PCIe or the PCI aperture) pays a fixed interconnect round-trip extra
// and walks without the core walk caches.
//
// The stage sits in front of the chain (StageXlat) but the production
// hierarchy calls Translate directly before its L1 fast path, so the
// translation-off configuration stays byte-identical: a nil
// *TranslationStage is a valid "axis off" value and every method is
// nil-receiver safe.
type TranslationStage struct {
	TLB [NumPUs]*xlat.TLB
	// WalkCache holds upper-level page-table entries; nil disables it
	// for that PU (always nil on the IOMMU path).
	WalkCache [NumPUs]*xlat.TLB
	// Walker serialises page walks. A shared MMU aliases both slots to
	// one clock.Resource so cross-PU walks contend.
	Walker [NumPUs]*clock.Resource
	// Levels and LevelLat price a full walk; a walk-cache hit pays a
	// single level.
	Levels   int
	LevelLat clock.Duration
	// IOMMU marks PUs whose walks run through the IOMMU path; IOMMUExtra
	// is that path's fixed additional latency.
	IOMMU      [NumPUs]bool
	IOMMUExtra clock.Duration

	shared bool

	lookups    [NumPUs]backendCounter
	misses     [NumPUs]backendCounter
	walkPS     [NumPUs]backendCounter
	wcHits     [NumPUs]backendCounter
	shootdowns [NumPUs]backendCounter
}

// NewTranslationStage builds the stage an xlat.Spec describes, or nil
// when the spec is the translation-off baseline. The spec's IOMMU mode
// must already be resolved (auto is treated as off; sim resolves it
// from the system's fabric before the hierarchy is built).
func NewTranslationStage(spec xlat.Spec) (*TranslationStage, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.IsZero() {
		return nil, nil
	}
	walk := spec.ResolvedWalk()
	s := &TranslationStage{
		Levels:     walk.Levels,
		LevelLat:   clock.Duration(walk.LevelPS),
		IOMMUExtra: clock.Duration(walk.IOMMUExtraPS),
		shared:     spec.MMU == xlat.Shared,
	}
	s.IOMMU[GPU] = spec.IOMMU == xlat.IOMMUOn
	if s.shared {
		w := clock.NewResource("xlat.mmu")
		s.Walker[CPU], s.Walker[GPU] = w, w
	} else {
		s.Walker[CPU] = clock.NewResource("xlat.mmu.cpu")
		s.Walker[GPU] = clock.NewResource("xlat.mmu.gpu")
	}
	for pu, params := range [NumPUs]xlat.TLBParams{CPU: spec.ResolvedCPU(), GPU: spec.ResolvedGPU()} {
		tlb, err := xlat.NewTLB(params.Entries, params.Ways, params.PageBytes)
		if err != nil {
			return nil, fmt.Errorf("translation.%v: %w", PU(pu), err)
		}
		s.TLB[pu] = tlb
		if walk.CacheEntries > 0 && !s.IOMMU[pu] {
			// One walk-cache entry covers a last-level table page — 512
			// translations — so the cache is a fully associative TLB at
			// pageBits+9 granularity.
			s.WalkCache[pu] = xlat.MustNewTLB(walk.CacheEntries, walk.CacheEntries, params.PageBytes<<9)
		}
	}
	return s, nil
}

// Translate charges addr's translation for pu at time now and returns
// the time the physical address is available. A TLB hit returns now
// unchanged: the probe runs in parallel with the L1 tag check.
func (s *TranslationStage) Translate(pu PU, addr uint64, now clock.Time) clock.Time {
	s.lookups[pu].n++
	if s.TLB[pu].Lookup(addr) {
		return now
	}
	s.misses[pu].n++
	levels := s.Levels
	if wc := s.WalkCache[pu]; wc != nil && wc.Lookup(addr) {
		s.wcHits[pu].n++
		levels = 1
	}
	lat := clock.Duration(levels) * s.LevelLat
	if s.IOMMU[pu] {
		lat += s.IOMMUExtra
	}
	_, end := s.Walker[pu].Acquire(now, lat)
	s.walkPS[pu].n += uint64(end.Sub(now))
	return end
}

// Flush shoots down pu's translations — TLB and walk cache — as a page
// table update demands (ownership handovers and lib-pf faults remap
// pages, so the hierarchy's FlushPrivate calls through here). Nil-safe
// so callers need no axis check.
func (s *TranslationStage) Flush(pu PU) {
	if s == nil {
		return
	}
	s.shootdowns[pu].n++
	s.TLB[pu].Flush()
	if wc := s.WalkCache[pu]; wc != nil {
		wc.Flush()
	}
}

// ID implements Stage.
func (s *TranslationStage) ID() StageID { return StageXlat }

// Process implements Stage: it translates the
// request's address and advances r.Now past any walk.
func (s *TranslationStage) Process(r *Request) Verdict {
	r.Now = s.Translate(r.PU, r.Addr, r.Now)
	return Next
}

// Reset returns the stage to just-constructed: TLBs, walk caches,
// walkers and counters all cleared. Registered instruments stay wired.
func (s *TranslationStage) Reset() {
	if s == nil {
		return
	}
	for pu := range s.TLB {
		s.TLB[pu].Reset()
		if wc := s.WalkCache[pu]; wc != nil {
			wc.Reset()
		}
		s.Walker[pu].Reset()
		s.lookups[pu].reset()
		s.misses[pu].reset()
		s.walkPS[pu].reset()
		s.wcHits[pu].reset()
		s.shootdowns[pu].reset()
	}
}

// Instrument registers the stage's xlat.* instruments with reg (nil
// detaches them) and aligns the flush baseline so a freshly attached
// registry observes only subsequent events.
func (s *TranslationStage) Instrument(reg *obs.Registry) {
	if s == nil {
		return
	}
	for pu := PU(0); pu < NumPUs; pu++ {
		s.lookups[pu].instrument(reg, "xlat.lookups."+pu.String())
		s.misses[pu].instrument(reg, "xlat.misses."+pu.String())
		s.walkPS[pu].instrument(reg, "xlat.walk_ps."+pu.String())
		s.wcHits[pu].instrument(reg, "xlat.walk_cache_hits."+pu.String())
		s.shootdowns[pu].instrument(reg, "xlat.shootdowns."+pu.String())
	}
}

// FlushObs pushes counter growth since the previous flush into the
// registered instruments.
func (s *TranslationStage) FlushObs() {
	if s == nil {
		return
	}
	for pu := range s.lookups {
		s.lookups[pu].flush()
		s.misses[pu].flush()
		s.walkPS[pu].flush()
		s.wcHits[pu].flush()
		s.shootdowns[pu].flush()
	}
}

// SharedMMU reports whether both PUs walk through one shared walker.
func (s *TranslationStage) SharedMMU() bool { return s != nil && s.shared }

// Lookups returns pu's TLB probe count (nil-safe, like all accessors).
func (s *TranslationStage) Lookups(pu PU) uint64 {
	if s == nil {
		return 0
	}
	return s.lookups[pu].n
}

// Misses returns pu's TLB miss count.
func (s *TranslationStage) Misses(pu PU) uint64 {
	if s == nil {
		return 0
	}
	return s.misses[pu].n
}

// WalkPS returns the total picoseconds pu's accesses spent stalled on
// page walks (including walker queueing).
func (s *TranslationStage) WalkPS(pu PU) uint64 {
	if s == nil {
		return 0
	}
	return s.walkPS[pu].n
}

// WalkCacheHits returns pu's walk-cache hit count.
func (s *TranslationStage) WalkCacheHits(pu PU) uint64 {
	if s == nil {
		return 0
	}
	return s.wcHits[pu].n
}

// Shootdowns returns the number of TLB shootdowns pu suffered.
func (s *TranslationStage) Shootdowns(pu PU) uint64 {
	if s == nil {
		return 0
	}
	return s.shootdowns[pu].n
}
