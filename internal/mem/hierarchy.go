// Package mem composes the cache, interconnect and DRAM substrates into
// the memory hierarchy of Table II: per-PU first-level caches, the CPU's
// private L2, a shared four-tile L3 reached over the ring bus, and the
// DDR3 memory controllers behind it. The hierarchy times individual
// accesses and explicit push placements, and exposes the GPU's
// software-managed cache.
//
// Each access runs as a memsys.Request through a memsys.Chain of
// stages (private levels, MSHR, ring hops, L3, coherence, DRAM,
// commit); this package owns the composition, internal/memsys owns the
// stages.
package mem

import (
	"fmt"
	"math/bits"

	"heteromem/internal/arena"
	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/coherence"
	"heteromem/internal/dram"
	"heteromem/internal/memsys"
	"heteromem/internal/memtech"
	"heteromem/internal/noc"
	"heteromem/internal/obs"
	"heteromem/internal/xlat"
)

// PU identifies a processing unit attached to the hierarchy.
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

// Level identifies a target cache level for explicit (push) placement.
type Level uint8

const (
	// LevelPrivate places data in the PU's first-level data cache.
	LevelPrivate Level = iota
	// LevelShared places data in the shared second-level (L3) cache —
	// the "push(x, S)" of the paper's locality examples (Figure 4).
	LevelShared
	// LevelSoftware places data in the GPU's software-managed cache.
	LevelSoftware
)

func (l Level) String() string {
	switch l {
	case LevelPrivate:
		return "private"
	case LevelShared:
		return "shared"
	case LevelSoftware:
		return "software"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Config describes the whole hierarchy. Latencies are absolute durations;
// callers convert from cycle counts in the owning frequency domain.
type Config struct {
	CPUL1D cache.Config
	CPUL2  cache.Config
	GPUL1D cache.Config
	// L3Tile is the configuration of one L3 tile; L3Tiles tiles are
	// instantiated and lines interleave across them.
	L3Tile  cache.Config
	L3Tiles int

	CPUL1DLat clock.Duration
	CPUL2Lat  clock.Duration
	GPUL1DLat clock.Duration
	L3Lat     clock.Duration

	// SWCacheBytes is the GPU software-managed cache capacity.
	SWCacheBytes uint64
	// SWCacheLat is its fixed access latency.
	SWCacheLat clock.Duration

	// MSHRsPerPU bounds outstanding misses per PU (0 = unlimited).
	MSHRsPerPU int

	// Coherence selects hardware coherence across the PUs' private
	// caches. The baseline leaves it off: none of the surveyed systems
	// builds full cross-PU hardware coherence (Table I), and the paper's
	// ideal system treats coherence as free. Enabling the directory
	// measures what that "free" actually costs.
	Coherence CoherenceMode

	Ring noc.Config
	DRAM dram.Config

	// Tech selects the terminal memory technology behind the L3 (the
	// mem_tech design axis). The zero Spec is the DDR3 baseline above;
	// other kinds replace the terminal stage with an HBM, NVM or
	// DRAM-cache backend. The DRAM controller is always built — the
	// memory-controller fabric DMAs through it regardless of Tech.
	Tech memtech.Spec

	// Xlat selects the address-translation front-end (the translation
	// design axis). The zero Spec is the paper's baseline — translation
	// free — and adds nothing to the access path; a non-zero spec puts a
	// per-PU TLB probe and page-walk model in front of every Access. The
	// spec's IOMMU mode must already be resolved (auto behaves as off
	// here; sim resolves it from the system's fabric).
	Xlat xlat.Spec
}

// CoherenceMode selects the cross-PU coherence machinery.
type CoherenceMode uint8

const (
	// CoherenceNone trusts software (flushes at ownership/kernel
	// boundaries) to keep data coherent.
	CoherenceNone CoherenceMode = iota
	// CoherenceDirectory runs a directory-based MSI protocol between the
	// PUs' private hierarchies, priced over the ring.
	CoherenceDirectory
)

func (m CoherenceMode) String() string {
	switch m {
	case CoherenceNone:
		return "none"
	case CoherenceDirectory:
		return "directory"
	default:
		return fmt.Sprintf("coherence(%d)", uint8(m))
	}
}

// Ring stop layout: CPU, GPU, L3 tiles, then the memory controller stop.
func (c Config) cpuStop() int        { return 0 }
func (c Config) gpuStop() int        { return 1 }
func (c Config) l3Stop(tile int) int { return 2 + tile }
func (c Config) mcStop() int         { return 2 + c.L3Tiles }

func (c Config) validate() error {
	if c.L3Tiles <= 0 {
		return fmt.Errorf("mem: L3 tiles %d must be positive", c.L3Tiles)
	}
	if c.Ring.Stops != c.mcStop()+1 {
		return fmt.Errorf("mem: ring has %d stops, hierarchy needs %d", c.Ring.Stops, c.mcStop()+1)
	}
	if err := c.Tech.Validate(); err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	if err := c.Xlat.Validate(); err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	return nil
}

// TableII returns the paper's baseline hierarchy (Table II), with cache
// latencies converted using the 3.5 GHz CPU and 1.5 GHz GPU domains:
// 8-way 32 KB 2-cycle L1s, 8-way 256 KB 8-cycle CPU L2, 32-way 8 MB
// 20-cycle L3 in 4 tiles, 16 KB software-managed GPU cache, ring bus,
// DDR3-1333 with 4 controllers.
func TableII() Config {
	cpuCycle := clock.NewDomain("cpu", 3500).PeriodPS()
	gpuCycle := clock.NewDomain("gpu", 1500).PeriodPS()
	cfg := Config{
		CPUL1D: cache.Config{Name: "cpu.l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		CPUL2:  cache.Config{Name: "cpu.l2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		GPUL1D: cache.Config{Name: "gpu.l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L3Tile: cache.Config{
			Name: "l3", SizeBytes: 2 << 20, LineBytes: 64, Ways: 32,
			Policy: cache.LocalityAware,
		},
		L3Tiles:      4,
		CPUL1DLat:    2 * cpuCycle,
		CPUL2Lat:     8 * cpuCycle,
		GPUL1DLat:    2 * gpuCycle,
		L3Lat:        20 * cpuCycle,
		SWCacheBytes: 16 << 10,
		SWCacheLat:   2 * gpuCycle,
		MSHRsPerPU:   16,
		Ring: noc.Config{
			Stops:             7, // cpu, gpu, 4 L3 tiles, mc
			HopLatency:        2 * cpuCycle,
			LinkBytesPerCycle: 32,
			CycleTime:         cpuCycle,
		},
		DRAM: dram.DDR3_1333(),
	}
	return cfg
}

// Stats counts hierarchy-level events per PU.
type Stats struct {
	Accesses   [NumPUs]uint64
	L1Hits     [NumPUs]uint64
	L2Hits     uint64 // CPU only
	L3Hits     [NumPUs]uint64
	DRAMFills  [NumPUs]uint64
	Writebacks uint64
	Pushes     uint64
	PushBytes  uint64
	// CoherenceOps counts accesses that required remote invalidations or
	// forced writebacks under CoherenceDirectory.
	CoherenceOps uint64
	// ScratchOverflows counts software-cache placements that exceeded
	// the scratchpad's capacity and forced a full refresh — a workload
	// placement bug the report should surface, not swallow.
	ScratchOverflows uint64
	// Translation counters (all zero with the axis off): TLB probes,
	// misses, total picoseconds stalled on page walks (including walker
	// queueing on a shared MMU), and shootdowns at ownership handovers.
	XlatLookups    [NumPUs]uint64
	XlatMisses     [NumPUs]uint64
	XlatWalkPS     [NumPUs]uint64
	XlatShootdowns [NumPUs]uint64
}

// Hierarchy is the assembled memory system: the cache/ring/DRAM
// substrates plus the per-PU memsys chains that route each access
// through them.
type Hierarchy struct {
	cfg     Config
	cpuL1d  *cache.Cache
	cpuL2   *cache.Cache
	gpuL1d  *cache.Cache
	l3      []*cache.Cache
	ring    *noc.Ring
	dram    *dram.Controller
	mshr    [NumPUs]*cache.MSHR
	scratch *cache.Scratchpad
	dir     *coherence.Directory

	// topo maps PUs and tiles onto ring stops and fixes message sizes;
	// env carries the counters the stages bump.
	topo    memsys.Topology
	env     memsys.Env
	private [NumPUs]*memsys.PrivateStage
	coh     *memsys.CoherenceStage
	l3Stage *memsys.L3Stage
	// backend is the terminal stage selected by cfg.Tech, shared by both
	// chains and by the L3's victim-writeback path.
	backend memsys.Backend
	// xlat is the translation front-end selected by cfg.Xlat; nil when
	// the axis is off. Access charges it directly (before its L1 fast
	// path), and it is also installed as the chains' Xlat slot so the
	// staged Run path translates identically.
	xlat  *memsys.TranslationStage
	chain [NumPUs]memsys.Chain
	// req is the reusable transaction: accesses are sequential per
	// hierarchy (one simulator, one goroutine), so a single request
	// keeps the miss path allocation-free.
	req memsys.Request

	// Fast-path state. l1/l1Lat mirror the private stages' first level
	// so an L1 hit is served without touching the stage chain; memo is
	// the per-PU direct-mapped filter of recently-hit lines; gen holds
	// one generation per PU, bumped whenever that PU's private caches
	// mutate (its own miss or flush, or a coherence recall of its
	// copy), so one PU's traffic no longer wipes the other PU's memo.
	// The generation is purely a liveness filter: a live slot's way is
	// still tag-verified (cache.HitWay) before it is trusted.
	l1        [NumPUs]*cache.Cache
	l1Lat     [NumPUs]clock.Duration
	lineShift uint
	memo      [NumPUs]lineMemo
	gen       [memsys.NumPUs]uint64

	stats Stats // access/push counts; event counts live in env
	obs   hierObs
}

// memoSlots is the number of direct-mapped entries in each PU's line
// memo; a power of two so the slot index is a mask.
const memoSlots = 256

// memoSlot remembers that its line was resident in the PU's L1 at way
// `way` while the hierarchy generation was `gen`. A slot whose
// generation is stale is dead; a live slot's way is still verified
// against the cache tag on use (cache.HitWay), so even a logically
// stale slot can never corrupt timing — at worst it degenerates into
// the ordinary L1 probe.
type memoSlot struct {
	line uint64
	gen  uint64
	way  int32
}

// lineMemo is a per-PU direct-mapped filter of recently-hit lines — a
// way predictor for the simulated L1 that lets repeated same-line hits
// in core replay skip even the L1 set scan.
type lineMemo struct {
	slots [memoSlots]memoSlot
}

// hierObs holds the hierarchy-owned observability instruments under the
// mem.* namespace; the per-stage instruments live in env.Obs. Nil
// instruments make every bump a no-op. Counters advance in batches
// (FlushObs) by the delta of stats over flushed.
type hierObs struct {
	accesses         [NumPUs]*obs.Counter
	pushes           *obs.Counter
	pushBytes        *obs.Counter
	scratchOverflows *obs.Counter
	flushed          Stats
}

// Instrument registers the hierarchy's metrics (mem.*) with reg and
// cascades to its components: each cache under "mem.<name>", the ring
// (noc.*) and the memory controllers (dram.*). A nil registry detaches
// everything. The stages observe the rewiring through their shared Env.
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	for p := PU(0); p < NumPUs; p++ {
		h.obs.accesses[p] = reg.Counter("mem.accesses." + p.String())
		h.env.Obs.L1Hits[p] = reg.Counter("mem.l1.hits." + p.String())
		h.env.Obs.L3Hits[p] = reg.Counter("mem.l3.hits." + p.String())
		h.env.Obs.DRAMFills[p] = reg.Counter("mem.dram_fills." + p.String())
		h.env.Obs.MSHROut[p] = reg.Gauge("mem.mshr.outstanding." + p.String())
	}
	h.env.Obs.L2Hits = reg.Counter("mem.l2.hits")
	h.env.Obs.Writebacks = reg.Counter("mem.writebacks")
	h.env.Obs.CoherenceOps = reg.Counter("mem.coherence.ops")
	h.obs.pushes = reg.Counter("mem.pushes")
	h.obs.pushBytes = reg.Counter("mem.push_bytes")
	h.obs.scratchOverflows = reg.Counter("mem.scratch_overflows")
	h.obs.flushed = h.stats
	h.env.MarkFlushed()

	h.cpuL1d.Instrument(reg, "mem."+h.cfg.CPUL1D.Name)
	h.cpuL2.Instrument(reg, "mem."+h.cfg.CPUL2.Name)
	h.gpuL1d.Instrument(reg, "mem."+h.cfg.GPUL1D.Name)
	for i, t := range h.l3 {
		t.Instrument(reg, fmt.Sprintf("mem.l3.t%d", i))
	}
	h.ring.Instrument(reg)
	h.dram.Instrument(reg)
	h.backend.Instrument(reg)
	h.xlat.Instrument(reg)
}

// InstrumentHost attaches sampled host wall-clock attribution to the
// per-PU stage chains: one in every p.Every() chain runs times each
// stage it executes, accumulating into p's memsys.* sections (flushed to
// the registry as host.memsys.*.ns counters by the simulator's batched
// flush). Section registration is idempotent, so pooled simulators
// sharing one profiler agree on ids. A nil profiler detaches profiling.
func (h *Hierarchy) InstrumentHost(p *obs.HostProf) {
	base := -1
	for i, name := range memsys.ProfSections() {
		id := p.Section(name)
		if i == 0 {
			base = id
		}
	}
	for pu := range h.chain {
		h.chain[pu].Prof = p
		h.chain[pu].ProfBase = base
	}
}

// New assembles a hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	return NewIn(nil, cfg)
}

// NewIn is New with the hierarchy's cache metadata arrays and MSHR files
// carved from the arena (nil falls back to the heap). The arena is used
// only during construction — the hierarchy keeps no reference to it — so
// the caller decides the lifecycle: a sweep worker builds its pooled
// simulators out of one arena and drops or resets it wholesale when the
// pool retires.
func NewIn(a *arena.Arena, cfg Config) (*Hierarchy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.cpuL1d, err = cache.NewIn(a, cfg.CPUL1D); err != nil {
		return nil, err
	}
	if h.cpuL2, err = cache.NewIn(a, cfg.CPUL2); err != nil {
		return nil, err
	}
	if h.gpuL1d, err = cache.NewIn(a, cfg.GPUL1D); err != nil {
		return nil, err
	}
	h.l3 = make([]*cache.Cache, cfg.L3Tiles)
	for i := range h.l3 {
		tileCfg := cfg.L3Tile
		tileCfg.Name = fmt.Sprintf("l3.t%d", i)
		if h.l3[i], err = cache.NewIn(a, tileCfg); err != nil {
			return nil, err
		}
	}
	if h.ring, err = noc.New(cfg.Ring); err != nil {
		return nil, err
	}
	if h.dram, err = dram.New(cfg.DRAM); err != nil {
		return nil, err
	}
	for p := PU(0); p < NumPUs; p++ {
		h.mshr[p] = cache.NewMSHRIn(a, cfg.MSHRsPerPU)
	}
	h.scratch = cache.NewScratchpad("gpu.sw", cfg.SWCacheBytes)
	if cfg.Coherence == CoherenceDirectory {
		h.dir, err = coherence.NewDirectory(uint64(cfg.L3Tile.LineBytes), int(NumPUs))
		if err != nil {
			return nil, err
		}
	}
	for p := range h.gen {
		h.gen[p] = 1 // zero-valued memo slots must never match
	}
	if err := h.buildChains(); err != nil {
		return nil, err
	}
	return h, nil
}

// buildChains composes the per-PU memsys.Chain request paths over the
// substrates New assembled: translation, private levels, MSHR merge,
// request hop, L3 (with coherence), the terminal backend cfg.Tech
// selects, response hop, commit. Stage order is the request path of
// Table II.
func (h *Hierarchy) buildChains() error {
	cfg := h.cfg
	h.topo = memsys.Topology{
		PUStop:    [memsys.NumPUs]int{cfg.cpuStop(), cfg.gpuStop()},
		L3Base:    cfg.l3Stop(0),
		MCStop:    cfg.mcStop(),
		Tiles:     cfg.L3Tiles,
		LineBytes: cfg.L3Tile.LineBytes,
		ReqBytes:  16,
	}.Derive()
	coh := &memsys.CoherenceStage{
		Dir:  h.dir,
		Net:  h.ring,
		Topo: h.topo,
		Caches: [memsys.NumPUs][]*cache.Cache{
			{h.cpuL1d, h.cpuL2},
			{h.gpuL1d},
		},
		Env: &h.env,
		Gen: &h.gen,
	}
	h.coh = coh
	h.private[CPU] = &memsys.PrivateStage{
		PU: memsys.CPU, L1: h.cpuL1d, L1Lat: cfg.CPUL1DLat,
		L2: h.cpuL2, L2Lat: cfg.CPUL2Lat, Coherence: coh, Env: &h.env,
	}
	h.private[GPU] = &memsys.PrivateStage{
		PU: memsys.GPU, L1: h.gpuL1d, L1Lat: cfg.GPUL1DLat,
		Coherence: coh, Env: &h.env,
	}
	h.l3Stage = &memsys.L3Stage{
		Tiles: h.l3, Lat: cfg.L3Lat,
		Topo: h.topo, Coherence: coh, Env: &h.env,
	}
	if err := h.buildBackend(); err != nil {
		return err
	}
	h.l3Stage.Mem = h.backend
	x, err := memsys.NewTranslationStage(cfg.Xlat)
	if err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	h.xlat = x
	for p := PU(0); p < NumPUs; p++ {
		h.chain[p] = memsys.Chain{
			Xlat:    h.xlat,
			Private: h.private[p],
			MSHR:    &memsys.MSHRStage{File: h.mshr[p]},
			ReqHop:  &memsys.RingHopStage{Stage: memsys.StageRingReq, Net: h.ring, Topo: h.topo},
			L3:      h.l3Stage,
			Backend: h.backend,
			RespHop: &memsys.RingHopStage{Stage: memsys.StageRingResp, Net: h.ring, Topo: h.topo},
			Commit:  &memsys.CommitStage{Private: h.private[p], File: h.mshr[p], Env: &h.env},
		}
	}

	// Fast-path mirrors of the private stages' first level.
	h.l1[CPU], h.l1Lat[CPU] = h.cpuL1d, cfg.CPUL1DLat
	h.l1[GPU], h.l1Lat[GPU] = h.gpuL1d, cfg.GPUL1DLat
	h.lineShift = uint(bits.TrailingZeros64(uint64(cfg.L3Tile.LineBytes)))
	return nil
}

// buildBackend constructs the terminal memory stage cfg.Tech selects.
func (h *Hierarchy) buildBackend() error {
	cfg := h.cfg
	switch cfg.Tech.Kind {
	case memtech.DRAM:
		h.backend = &memsys.DRAMStage{
			Ctrl: h.dram, Net: h.ring, Topo: h.topo, L3: h.l3Stage, Env: &h.env,
		}
	case memtech.HBM:
		p := cfg.Tech.ResolvedHBM()
		ctrl, err := dram.New(p.DRAMConfig(cfg.L3Tile.LineBytes))
		if err != nil {
			return fmt.Errorf("mem: mem_tech.hbm: %w", err)
		}
		h.backend = &memsys.HBMStage{
			Ctrl: ctrl, ExtraLat: p.ExtraLat(),
			Net: h.ring, Topo: h.topo, L3: h.l3Stage, Env: &h.env,
		}
	case memtech.NVM:
		p := cfg.Tech.ResolvedNVM()
		chans := make([]*clock.Resource, p.Channels)
		for i := range chans {
			chans[i] = clock.NewResource(fmt.Sprintf("nvm.ch%d", i))
		}
		h.backend = &memsys.NVMStage{
			Chans:      chans,
			ReadLat:    clock.Duration(p.ReadPS),
			WriteLat:   clock.Duration(p.WritePS),
			Bus:        clock.Duration(p.BusPS),
			QueueDepth: p.WriteQueueDepth,
			Net:        h.ring, Topo: h.topo, L3: h.l3Stage, Env: &h.env,
		}
	case memtech.DRAMCache:
		p := cfg.Tech.ResolvedDRAMCache()
		dir, err := cache.New(cache.Config{
			Name:      "dram_cache",
			SizeBytes: int(p.SizeBytes),
			LineBytes: cfg.L3Tile.LineBytes,
			Ways:      p.Ways,
		})
		if err != nil {
			return fmt.Errorf("mem: mem_tech.dram_cache: %w", err)
		}
		near := make([]*clock.Resource, p.NearChannels)
		for i := range near {
			near[i] = clock.NewResource(fmt.Sprintf("dram_cache.near%d", i))
		}
		far := make([]*clock.Resource, p.FarChannels)
		for i := range far {
			far[i] = clock.NewResource(fmt.Sprintf("dram_cache.far%d", i))
		}
		h.backend = &memsys.DRAMCacheStage{
			Dir:       dir,
			NearChans: near, FarChans: far,
			NearLat: clock.Duration(p.NearPS), NearBus: clock.Duration(p.NearBusPS),
			FarRead: clock.Duration(p.FarReadPS), FarWrite: clock.Duration(p.FarWritePS),
			FarBus: clock.Duration(p.FarBusPS),
			Net:    h.ring, Topo: h.topo, L3: h.l3Stage, Env: &h.env,
		}
	default:
		return fmt.Errorf("mem: mem_tech.kind: invalid memory technology %d", uint8(cfg.Tech.Kind))
	}
	return nil
}

// MustNew is New but panics on configuration error.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the hierarchy counters.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.L1Hits = h.env.L1Hits
	s.L2Hits = h.env.L2Hits
	s.L3Hits = h.env.L3Hits
	s.DRAMFills = h.env.DRAMFills
	s.Writebacks = h.env.Writebacks
	s.CoherenceOps = h.env.CoherenceOps
	for p := PU(0); p < NumPUs; p++ {
		s.XlatLookups[p] = h.xlat.Lookups(memsys.PU(p))
		s.XlatMisses[p] = h.xlat.Misses(memsys.PU(p))
		s.XlatWalkPS[p] = h.xlat.WalkPS(memsys.PU(p))
		s.XlatShootdowns[p] = h.xlat.Shootdowns(memsys.PU(p))
	}
	return s
}

// Reset returns the hierarchy to its just-constructed state: every
// cache cold, the ring and controllers idle, MSHR files and scratchpad
// empty, the directory untracked, and all statistics cleared.
// Instruments stay wired (use Instrument(nil) to detach them).
func (h *Hierarchy) Reset() {
	h.cpuL1d.Reset()
	h.cpuL2.Reset()
	h.gpuL1d.Reset()
	for _, t := range h.l3 {
		t.Reset()
	}
	h.ring.Reset()
	h.dram.Reset()
	h.backend.Reset()
	h.xlat.Reset()
	for p := PU(0); p < NumPUs; p++ {
		h.mshr[p].Reset()
	}
	h.scratch.Reset()
	if h.dir != nil {
		h.dir.Reset()
	}
	h.env.Reset()
	h.stats = Stats{}
	h.obs.flushed = Stats{}
	for p := range h.memo {
		h.memo[p] = lineMemo{}
	}
	for p := range h.gen {
		h.gen[p] = 1
	}
}

// FlushObs pushes the counters accumulated since the last flush into the
// registered instruments: the hierarchy's own access/push counters, the
// stage counters in env, and each cache's hit/miss/eviction counts. The
// simulator calls it at phase boundaries (immediately before interval
// samples), so hot-path events cost a plain integer increment instead of
// an instrument call.
func (h *Hierarchy) FlushObs() {
	for p := PU(0); p < NumPUs; p++ {
		h.obs.accesses[p].Add(h.stats.Accesses[p] - h.obs.flushed.Accesses[p])
	}
	h.obs.pushes.Add(h.stats.Pushes - h.obs.flushed.Pushes)
	h.obs.pushBytes.Add(h.stats.PushBytes - h.obs.flushed.PushBytes)
	h.obs.scratchOverflows.Add(h.stats.ScratchOverflows - h.obs.flushed.ScratchOverflows)
	h.obs.flushed = h.stats
	h.env.FlushObs()
	h.cpuL1d.FlushObs()
	h.cpuL2.FlushObs()
	h.gpuL1d.FlushObs()
	for _, t := range h.l3 {
		t.FlushObs()
	}
	h.backend.FlushObs()
	h.xlat.FlushObs()
}

// Scratchpad returns the GPU's software-managed cache.
func (h *Hierarchy) Scratchpad() *cache.Scratchpad { return h.scratch }

// DRAM returns the memory controller, for direct DMA-style transfers.
func (h *Hierarchy) DRAM() *dram.Controller { return h.dram }

// Backend returns the terminal memory stage serving L3 misses.
func (h *Hierarchy) Backend() memsys.Backend { return h.backend }

// TechKind returns the configured memory technology.
func (h *Hierarchy) TechKind() memtech.Kind { return h.cfg.Tech.Kind }

// Translation returns the address-translation front-end, or nil when
// the axis is off.
func (h *Hierarchy) Translation() *memsys.TranslationStage { return h.xlat }

// Ring returns the interconnect, for reporting.
func (h *Hierarchy) Ring() *noc.Ring { return h.ring }

// Directory returns the coherence directory, or nil when coherence is
// off.
func (h *Hierarchy) Directory() *coherence.Directory { return h.dir }

// Access times a single load or store by pu to addr, starting at now, and
// returns its completion time. Write-allocate, write-back at every level.
//
// An access that hits the PU's first-level cache is served on a fast
// path — memo probe, then direct L1 lookup — without constructing a
// request or entering the stage chain; only a first-level miss pays for
// the full pipeline. Both fast-path arms charge the same L1 latency and
// perform the same cache mutations as PrivateStage, so timing and
// statistics are identical to the staged path.
func (h *Hierarchy) Access(pu PU, addr uint64, write bool, now clock.Time) clock.Time {
	if pu >= NumPUs {
		panic(fmt.Sprintf("mem: access from unknown PU %d", pu))
	}
	h.stats.Accesses[pu]++
	if h.xlat != nil {
		// Translation runs before any cache can be indexed by the
		// physical address: a TLB hit is free (probe overlaps the L1 tag
		// check), a miss stalls the access for the page walk.
		now = h.xlat.Translate(memsys.PU(pu), addr, now)
	}
	line := h.topo.Line(addr)
	slot := &h.memo[pu].slots[(line>>h.lineShift)&(memoSlots-1)]
	if slot.gen == h.gen[pu] && slot.line == line && h.l1[pu].HitWay(addr, int(slot.way), write) {
		h.env.L1Hits[pu]++
		end := now.Add(h.l1Lat[pu])
		if write {
			end = h.coh.Apply(memsys.PU(pu), addr, line, write, end)
			slot.gen = h.gen[pu] // re-key after a possible coherence bump
		}
		return end
	}
	if way := h.l1[pu].LookupWay(addr, write); way >= 0 {
		h.env.L1Hits[pu]++
		end := now.Add(h.l1Lat[pu])
		if write {
			end = h.coh.Apply(memsys.PU(pu), addr, line, write, end)
		}
		*slot = memoSlot{line: line, gen: h.gen[pu], way: int32(way)}
		return end
	}
	// Miss: the fill and any evictions below mutate this PU's private
	// caches, so its memoized ways are suspect. The other PU's memo is
	// only disturbed through the coherence stage's targeted bump.
	h.gen[pu]++
	h.req.Start(memsys.PU(pu), addr, line, write, now.Add(h.l1Lat[pu]))
	end := h.chain[pu].RunMissedL1(&h.req)
	// Memo-on-fill: the commit stage reports which L1 way it installed
	// the line into, so streaming lines touched exactly twice (common at
	// sub-line strides) ride the fast path on their second access instead
	// of paying a probe. The coherence stage only ever bumps the *other*
	// PU's generation, so h.gen[pu] is still the value set above and the
	// slot is keyed to the post-miss epoch. HitWay tag-verifies before
	// trusting the slot, so a stale way is a wasted check, never a wrong
	// answer.
	if w := h.req.L1Way; w >= 0 {
		*slot = memoSlot{line: line, gen: h.gen[pu], way: int32(w)}
	}
	return end
}

// Push explicitly places the size-byte object at addr into the target
// level for pu, line by line, and returns the completion time. This is
// the hardware side of the paper's push(x, level) locality-control
// statement: data moves into the designated cache with its locality bit
// set so implicit traffic cannot evict it (Section II-B5).
func (h *Hierarchy) Push(pu PU, addr uint64, size uint32, level Level, now clock.Time) clock.Time {
	h.stats.Pushes++
	h.stats.PushBytes += uint64(size)
	// No generation bump: explicit placement mutates the L3 tiles and
	// the scratchpad, never a private L1 directly — the private-level
	// traffic it does generate goes through Access, which maintains the
	// generations itself. Any slot the placement happens to orphan is
	// caught by HitWay's tag verification.
	if size == 0 {
		return now
	}
	lineBytes := uint64(h.topo.LineBytes)
	switch level {
	case LevelSoftware:
		// Software-managed cache: one DMA-style burst from the shared
		// hierarchy into the scratchpad.
		if err := h.scratch.Place(addr, uint64(size)); err != nil {
			// Capacity exceeded is a program (trace) error; count it so
			// reports surface the placement bug, then treat it as a
			// refresh of the whole scratchpad.
			h.stats.ScratchOverflows++
			h.scratch.Clear()
			_ = h.scratch.Place(addr, uint64(size))
		}
		t := now
		for line := h.topo.Line(addr); line < addr+uint64(size); line += lineBytes {
			t = h.Access(GPU, line, false, t)
		}
		return t
	case LevelShared:
		// Move each line into its L3 tile over the ring, marked explicit.
		t := now
		src := h.topo.PUStop[pu]
		for line := h.topo.Line(addr); line < addr+uint64(size); line += lineBytes {
			tile := h.topo.TileFor(line)
			at := h.ring.Send(src, h.topo.TileStop(tile), h.topo.LineBytes+h.topo.ReqBytes, t)
			at = at.Add(h.cfg.L3Lat)
			h.l3Stage.Fill(tile, line, true, true, at)
			t = at
		}
		return t
	case LevelPrivate:
		// Prefetch into the PU's first-level cache through the normal path.
		t := now
		for line := h.topo.Line(addr); line < addr+uint64(size); line += lineBytes {
			t = h.Access(pu, line, false, t)
		}
		return t
	default:
		panic(fmt.Sprintf("mem: push to unknown level %d", level))
	}
}

// FlushPrivate writes back and invalidates pu's private caches (used at
// ownership-transfer points) and returns the number of dirty lines
// written back.
func (h *Hierarchy) FlushPrivate(pu PU) int {
	h.gen[pu]++ // flushed lines must drop out of the flushing PU's memo
	// An ownership transfer remaps pages between the PUs' views, so the
	// handover that flushes the caches also shoots down the TLB (nil-safe
	// when the translation axis is off).
	h.xlat.Flush(memsys.PU(pu))
	if pu == CPU {
		return h.cpuL1d.FlushAll() + h.cpuL2.FlushAll()
	}
	h.scratch.Clear()
	return h.gpuL1d.FlushAll()
}

// CacheStats returns per-cache statistics keyed by cache name.
func (h *Hierarchy) CacheStats() map[string]cache.Stats {
	out := map[string]cache.Stats{
		h.cfg.CPUL1D.Name: h.cpuL1d.Stats(),
		h.cfg.CPUL2.Name:  h.cpuL2.Stats(),
		h.cfg.GPUL1D.Name: h.gpuL1d.Stats(),
	}
	for i, t := range h.l3 {
		out[fmt.Sprintf("l3.t%d", i)] = t.Stats()
	}
	return out
}
