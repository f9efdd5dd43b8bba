package memsys

import (
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// newTestL3 returns an L3Stage over four small tiles with no victim
// sink (the backend under test is attached by the caller if needed).
func newTestL3(t *testing.T, env *Env) *L3Stage {
	t.Helper()
	return &L3Stage{
		Tiles: []*cache.Cache{
			mustCache(t, "t0", 4096), mustCache(t, "t1", 4096),
			mustCache(t, "t2", 4096), mustCache(t, "t3", 4096),
		},
		Lat: 20, Topo: testTopo(), Env: env,
	}
}

func TestHBMStageServesMiss(t *testing.T) {
	env := &Env{}
	net := &fakeNet{lat: 3}
	topo := testTopo()
	ctrl, err := dram.New(dram.Config{
		Channels: 2, BanksPerChannel: 2, LineBytes: 64, RowBytes: 2048,
		TCAS: 10, TRCD: 10, TRP: 10, TBurst: 4, TCCD: 2,
		Scheduling: dram.FRFCFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	l3 := newTestL3(t, env)
	s := &HBMStage{Ctrl: ctrl, ExtraLat: 100, Net: net, Topo: topo, L3: l3, Env: env}
	l3.Mem = s

	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	r.Flags |= FlagL3Hit
	if s.Process(&r); r.Now != 0 || len(net.sends) != 0 {
		t.Fatal("HBM stage must be free on an L3 hit")
	}

	r.Start(CPU, 0x40, 0x40, false, 0)
	s.Process(&r)
	if r.Flags&FlagDRAM == 0 || env.DRAMFills[CPU] != 1 || s.accesses.n != 1 {
		t.Errorf("miss must reach the stack: flags=%v fills=%v accesses=%d",
			r.Flags, env.DRAMFills, s.accesses.n)
	}
	// Hop (3) + ExtraLat (100) + first access tRCD+tCAS+tBurst (24) + hop (3).
	if want := clock.Time(130); r.Now != want {
		t.Errorf("completion = %d, want %d", r.Now, want)
	}
	if !l3.Tiles[1].Probe(0x40) {
		t.Error("fill must install the line into its home L3 tile")
	}

	s.Reset()
	if s.accesses.n != 0 || ctrl.Stats().Requests != 0 {
		t.Error("Reset must clear the stage counter and its private controller")
	}
}

func TestNVMReadWriteAsymmetry(t *testing.T) {
	env := &Env{}
	topo := testTopo()
	s := &NVMStage{
		Chans:   []*clock.Resource{clock.NewResource("ch0")},
		ReadLat: 100, WriteLat: 1000, Bus: 10, QueueDepth: 2,
		Net: &fakeNet{lat: 0}, Topo: topo, L3: newTestL3(t, env), Env: env,
	}
	s.L3.Mem = s

	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	s.Process(&r)
	if r.Now != 100 || s.reads.n != 1 {
		t.Errorf("read completion = %d (reads=%d), want 100", r.Now, s.reads.n)
	}

	// Writebacks drain serially: each extends the horizon by WriteLat.
	s.Writeback(0x1000, 200)
	s.Writeback(0x1040, 200)
	if s.writes.n != 2 || s.horizon != 200+2*1000 {
		t.Errorf("horizon = %d after two writes, want 2200", s.horizon)
	}
}

func TestNVMWriteQueueStallsReads(t *testing.T) {
	env := &Env{}
	topo := testTopo()
	s := &NVMStage{
		Chans:   []*clock.Resource{clock.NewResource("ch0")},
		ReadLat: 100, WriteLat: 1000, Bus: 0, QueueDepth: 2,
		Net: &fakeNet{lat: 0}, Topo: topo, L3: newTestL3(t, env), Env: env,
	}
	s.L3.Mem = s

	// Queue three writes at t=0: horizon 3000, two writes' worth beyond
	// the depth-2 bound for any read arriving before t=1000.
	for i := uint64(0); i < 3; i++ {
		s.Writeback(0x1000+i*64, 0)
	}
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	s.Process(&r)
	// The read waits until the backlog drops to QueueDepth (t=1000),
	// then pays its own latency.
	if want := clock.Time(1100); r.Now != want {
		t.Errorf("stalled read completes at %d, want %d", r.Now, want)
	}
	if s.writeStalls.n != 1 {
		t.Errorf("writeStalls = %d, want 1", s.writeStalls.n)
	}

	// After the drain horizon passes, reads are admitted immediately.
	r.Start(CPU, 0x80, 0x80, false, 5000)
	s.Process(&r)
	if want := clock.Time(5100); r.Now != want {
		t.Errorf("unstalled read completes at %d, want %d", r.Now, want)
	}
	if s.writeStalls.n != 1 {
		t.Errorf("unstalled read must not count a stall, got %d", s.writeStalls.n)
	}
}

func TestDRAMCacheHitMissFill(t *testing.T) {
	env := &Env{}
	topo := testTopo()
	dir, err := cache.New(cache.Config{
		Name: "dram_cache", SizeBytes: 8192, LineBytes: 64, Ways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &DRAMCacheStage{
		Dir:       dir,
		NearChans: []*clock.Resource{clock.NewResource("near0")},
		FarChans:  []*clock.Resource{clock.NewResource("far0")},
		NearLat:   50, NearBus: 0, FarRead: 500, FarWrite: 800, FarBus: 0,
		Net: &fakeNet{lat: 0}, Topo: topo, L3: newTestL3(t, env), Env: env,
	}
	s.L3.Mem = s

	// Cold miss: near probe + far read, and the line fills near memory.
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	s.Process(&r)
	if want := clock.Time(550); r.Now != want {
		t.Errorf("cold miss completes at %d, want %d", r.Now, want)
	}
	if s.misses.n != 1 || s.fills.n != 1 || s.hits.n != 0 {
		t.Errorf("cold miss counters: hits=%d misses=%d fills=%d",
			s.hits.n, s.misses.n, s.fills.n)
	}

	// Re-access: the home L3 tile now holds the line, so force the
	// backend path by invalidating it there first.
	s.L3.Tiles[1].Invalidate(0x40)
	r.Start(CPU, 0x40, 0x40, false, 1000)
	s.Process(&r)
	if want := clock.Time(1050); r.Now != want {
		t.Errorf("near hit completes at %d, want %d", r.Now, want)
	}
	if s.hits.n != 1 {
		t.Errorf("hits = %d, want 1", s.hits.n)
	}

	// A dirty L3 victim write-allocates into near memory.
	s.Writeback(0x2000, 2000)
	if s.fills.n != 2 {
		t.Errorf("writeback must fill near memory, fills = %d", s.fills.n)
	}
	r.Start(CPU, 0x2000, 0x2000, false, 3000)
	s.Process(&r)
	if s.hits.n != 2 {
		t.Errorf("written-back line must hit near memory, hits = %d", s.hits.n)
	}

	s.Reset()
	if s.hits.n != 0 || dir.Probe(0x40) {
		t.Error("Reset must clear counters and the near-cache directory")
	}
}

func TestDRAMCacheDirtyVictimGoesFar(t *testing.T) {
	env := &Env{}
	topo := testTopo()
	// Direct-mapped 2-line cache: two same-set dirty fills force a dirty
	// eviction to far memory.
	dir, err := cache.New(cache.Config{
		Name: "dram_cache", SizeBytes: 128, LineBytes: 64, Ways: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	far := clock.NewResource("far0")
	s := &DRAMCacheStage{
		Dir:       dir,
		NearChans: []*clock.Resource{clock.NewResource("near0")},
		FarChans:  []*clock.Resource{far},
		NearLat:   50, NearBus: 0, FarRead: 500, FarWrite: 800, FarBus: 10,
		Net: &fakeNet{lat: 0}, Topo: topo, L3: newTestL3(t, env), Env: env,
	}
	s.L3.Mem = s

	s.Writeback(0x0000, 0)   // dirty line in set 0
	s.Writeback(0x0080, 100) // same set: evicts the first, dirty
	if s.writebacks.n != 1 {
		t.Errorf("far writebacks = %d, want 1", s.writebacks.n)
	}
	// Far channel served the eviction's transfer (plus nothing else).
	if far.Requests() != 1 {
		t.Errorf("far channel requests = %d, want 1", far.Requests())
	}
}

// Backend FlushObs must push exactly the delta since the last flush,
// matching the hierarchy's batched-counter contract.
func TestBackendCounterFlush(t *testing.T) {
	env := &Env{}
	topo := testTopo()
	l3 := newTestL3(t, env)
	ctrl, err := dram.New(dram.DDR3_1333())
	if err != nil {
		t.Fatal(err)
	}
	s := &DRAMStage{Ctrl: ctrl, Net: &fakeNet{lat: 0}, Topo: topo, L3: l3, Env: env}
	l3.Mem = s

	reg := obs.NewRegistry()
	s.Instrument(reg)
	var r Request
	for i := uint64(0); i < 3; i++ {
		r.Start(CPU, i*64, i*64, false, 0)
		s.Process(&r)
	}
	s.FlushObs()
	if got := reg.Snapshot().Counters["memtech.dram.accesses"]; got != 3 {
		t.Errorf("flushed accesses = %d, want 3", got)
	}
	s.FlushObs() // idempotent with no new events
	if got := reg.Snapshot().Counters["memtech.dram.accesses"]; got != 3 {
		t.Errorf("double flush = %d, want 3", got)
	}
}
