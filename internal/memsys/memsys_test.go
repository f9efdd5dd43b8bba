package memsys

import (
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
	"heteromem/internal/xlat"
)

// fakeNet records every Send and charges a fixed latency per hop.
type fakeNet struct {
	lat   clock.Duration
	sends []fakeSend
}

type fakeSend struct {
	from, to, bytes int
}

func (f *fakeNet) Send(from, to, bytes int, now clock.Time) clock.Time {
	f.sends = append(f.sends, fakeSend{from, to, bytes})
	return now.Add(f.lat)
}

func testTopo() Topology {
	return Topology{
		PUStop:    [NumPUs]int{0, 1},
		L3Base:    2,
		MCStop:    6,
		Tiles:     4,
		LineBytes: 64,
		ReqBytes:  16,
	}
}

func mustCache(t *testing.T, name string, size int) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Name: name, SizeBytes: size, LineBytes: 64, Ways: 8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTopologyMapping(t *testing.T) {
	topo := testTopo()
	if got := topo.Line(0x1234); got != 0x1200 {
		t.Errorf("Line(0x1234) = %#x, want 0x1200", got)
	}
	if got := topo.TileFor(64 * 5); got != 1 {
		t.Errorf("TileFor(line 5) = %d, want 1", got)
	}
	if got := topo.TileStop(3); got != 5 {
		t.Errorf("TileStop(3) = %d, want 5", got)
	}
}

// newTestChain returns a CPU chain over small private caches, a
// four-tile L3 and a DDR3 backend, with 4 KB translation in front.
func newTestChain(t *testing.T, prof *obs.HostProf) *Chain {
	t.Helper()
	ctrl, err := dram.New(dram.DDR3_1333())
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{}
	net := &fakeNet{lat: 3}
	topo := testTopo()
	l3 := newTestL3(t, env)
	private := &PrivateStage{
		PU: CPU, L1: mustCache(t, "l1", 4096), L1Lat: 2,
		L2: mustCache(t, "l2", 8192), L2Lat: 8, Env: env,
	}
	file := cache.NewMSHR(4)
	c := &Chain{
		Xlat:    mustStage(t, xlat.MustParsePreset("4k")),
		Private: private,
		MSHR:    &MSHRStage{File: file},
		ReqHop:  &RingHopStage{Stage: StageRingReq, Net: net, Topo: topo},
		L3:      l3,
		Backend: &DRAMStage{Ctrl: ctrl, Net: net, Topo: topo, L3: l3, Env: env},
		RespHop: &RingHopStage{Stage: StageRingResp, Net: net, Topo: topo},
		Commit:  &CommitStage{Private: private, File: file, Env: env},
		Prof:    prof,
	}
	l3.Mem = c.Backend
	for _, name := range ProfSections() {
		prof.Section(name) // a fresh profiler numbers them from ProfBase 0
	}
	return c
}

// TestChainStampsAndShortCircuits pins the chain's stamping contract on
// every exit — a stage that answers Done leaves every later stamp zero,
// and a shared-path request stamps through StageCommit — and pins that
// a host-profiled chain (every run sampled) produces the same Stamp,
// Flags and Now as an unprofiled one, stage by stage.
func TestChainStampsAndShortCircuits(t *testing.T) {
	type step struct {
		name  string
		at    clock.Time
		evict bool    // drop the line from the private levels first
		last  StageID // last stage that must stamp
		flag  Flags   // flag the request must carry
	}
	steps := []step{
		{name: "cold miss to DRAM", at: 5, last: StageCommit, flag: FlagDRAM},
		{name: "L1 hit", at: 1_000_000, last: StagePrivate, flag: FlagL1Hit},
		{name: "merge with in-flight miss", at: 10, evict: true, last: StageMSHR, flag: FlagMerged},
		{name: "L3 hit", at: 10_000_000, evict: true, last: StageCommit, flag: FlagL3Hit},
	}
	run := func(prof *obs.HostProf) []Request {
		c := newTestChain(t, prof)
		var out []Request
		for _, st := range steps {
			if st.evict {
				c.Private.L1.Invalidate(0x40)
				c.Private.L2.Invalidate(0x40)
			}
			var r Request
			r.Start(CPU, 0x40, 0x40, false, st.at)
			if done := c.Run(&r); done != r.Now {
				t.Fatalf("%s: Run returned %d, request ends at %d", st.name, done, r.Now)
			}
			out = append(out, r)
		}
		return out
	}
	plain := run(nil)
	prof := obs.NewHostProf(1)
	profiled := run(prof)
	for i, st := range steps {
		r := plain[i]
		if r.Flags&st.flag == 0 {
			t.Errorf("%s: flags = %v, want %v set", st.name, r.Flags, st.flag)
		}
		for s := StageXlat; s < NumStages; s++ {
			if s == StageCoherence {
				continue // the chain folds coherence into private and L3
			}
			if stamped := r.Stamp[s] != 0; stamped != (s <= st.last) {
				t.Errorf("%s: stamp[%v] = %d, want stamped only through %v", st.name, s, r.Stamp[s], st.last)
			}
		}
		if r.Now != r.Stamp[st.last] {
			t.Errorf("%s: now = %d, last stamp %d", st.name, r.Now, r.Stamp[st.last])
		}
		if p := profiled[i]; p.Stamp != r.Stamp || p.Flags != r.Flags || p.Now != r.Now {
			t.Errorf("%s: profiled run diverged:\n plain    %v %v %d\n profiled %v %v %d",
				st.name, r.Stamp, r.Flags, r.Now, p.Stamp, p.Flags, p.Now)
		}
	}
	reg := obs.NewRegistry()
	prof.FlushTo(reg)
	// Xlat and private run on all 4 steps, MSHR on 3, the rest on the 2
	// shared-path steps.
	want := map[string]uint64{
		"memsys.xlat": 4, "memsys.private": 4, "memsys.mshr": 3, "memsys.ring_req": 2,
		"memsys.l3": 2, "memsys.dram": 2, "memsys.ring_resp": 2, "memsys.commit": 2,
	}
	for name, n := range want {
		if got := reg.CounterValue("host." + name + ".samples"); got != n {
			t.Errorf("host.%s.samples = %d, want %d", name, got, n)
		}
	}
}

func TestRequestStartClearsState(t *testing.T) {
	var r Request
	r.Flags = FlagDRAM
	r.Stamp[StageL3] = 99
	r.Start(GPU, 0x80, 0x80, true, 7)
	if r.Flags != 0 || r.Stamp[StageL3] != 0 {
		t.Errorf("Start left stale state: flags=%v stamp=%v", r.Flags, r.Stamp)
	}
	if r.PU != GPU || !r.Write || r.Issue != 7 || r.Now != 7 {
		t.Errorf("Start fields wrong: %+v", r)
	}
}

func TestMSHRStageMergesOutstanding(t *testing.T) {
	file := cache.NewMSHR(4)
	s := &MSHRStage{File: file}
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 10)
	if v := s.Process(&r); v != Next {
		t.Fatal("empty MSHR file must not merge")
	}
	file.Allocate(0x40, 10, 500)
	r.Start(CPU, 0x40, 0x40, false, 20)
	if v := s.Process(&r); v != Done {
		t.Fatal("in-flight line must merge")
	}
	if r.Now != 500 || r.Flags&FlagMerged == 0 {
		t.Errorf("merged request: now=%d flags=%v, want now=500 merged", r.Now, r.Flags)
	}
}

func TestRingHopStageDirectionsAndSizes(t *testing.T) {
	net := &fakeNet{lat: 3}
	topo := testTopo()
	req := &RingHopStage{Stage: StageRingReq, Net: net, Topo: topo}
	resp := &RingHopStage{Stage: StageRingResp, Net: net, Topo: topo}

	var r Request
	addr := uint64(64 * 2) // tile 2, stop 4
	r.Start(GPU, addr, addr, false, 0)
	req.Process(&r)
	resp.Process(&r)
	if r.Now != 6 {
		t.Errorf("two hops at 3 each ended at %d", r.Now)
	}
	want := []fakeSend{
		{from: 1, to: 4, bytes: 16},      // gpu -> tile: request message
		{from: 4, to: 1, bytes: 64 + 16}, // tile -> gpu: line + header
	}
	for i, w := range want {
		if net.sends[i] != w {
			t.Errorf("send %d = %+v, want %+v", i, net.sends[i], w)
		}
	}
}

func TestDRAMStageSkipsOnL3Hit(t *testing.T) {
	ctrl, err := dram.New(dram.DDR3_1333())
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{}
	net := &fakeNet{lat: 3}
	topo := testTopo()
	l3 := &L3Stage{
		Tiles: []*cache.Cache{
			mustCache(t, "t0", 4096), mustCache(t, "t1", 4096),
			mustCache(t, "t2", 4096), mustCache(t, "t3", 4096),
		},
		Lat: 20, Topo: topo, Env: env,
	}
	s := &DRAMStage{Ctrl: ctrl, Net: net, Topo: topo, L3: l3, Env: env}
	l3.Mem = s

	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	r.Flags |= FlagL3Hit
	if s.Process(&r); r.Now != 0 || len(net.sends) != 0 {
		t.Fatal("DRAM stage must be free on an L3 hit")
	}

	r.Start(CPU, 0x40, 0x40, false, 0)
	s.Process(&r)
	if r.Flags&FlagDRAM == 0 || env.DRAMFills[CPU] != 1 {
		t.Errorf("miss must reach DRAM: flags=%v fills=%v", r.Flags, env.DRAMFills)
	}
	if len(net.sends) != 2 || net.sends[0].to != topo.MCStop {
		t.Errorf("miss must hop tile->mc->tile, got %+v", net.sends)
	}
	if !l3.Tiles[1].Probe(0x40) {
		t.Error("DRAM fill must install the line into its home L3 tile")
	}
}

func TestCoherenceStageNilSafe(t *testing.T) {
	var nilStage *CoherenceStage
	var r Request
	r.Start(CPU, 0x40, 0x40, true, 10)
	if v := nilStage.Process(&r); v != Next || r.Now != 10 {
		t.Error("nil coherence stage must be a free pass-through")
	}
	if nilStage.Directory() != nil {
		t.Error("nil stage has no directory")
	}
	off := &CoherenceStage{} // directory off
	if v := off.Process(&r); v != Next || r.Now != 10 {
		t.Error("directory-off stage must be a free pass-through")
	}
}

func TestPrivateStageHitLevels(t *testing.T) {
	env := &Env{}
	l1 := mustCache(t, "l1", 4096)
	l2 := mustCache(t, "l2", 8192)
	s := &PrivateStage{PU: CPU, L1: l1, L1Lat: 2, L2: l2, L2Lat: 8, Env: env}

	// Cold: both levels miss, both latencies charged.
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	if v := s.Process(&r); v != Next || r.Now != 10 {
		t.Fatalf("cold access: verdict=%v now=%d, want Next at 10", v, r.Now)
	}
	// Fill as the commit stage would, then re-access: L1 hit at L1 latency.
	s.Fill(0x40, false)
	r.Start(CPU, 0x40, 0x40, false, 0)
	if v := s.Process(&r); v != Done || r.Now != 2 {
		t.Fatalf("L1 hit: verdict=%v now=%d, want Done at 2", v, r.Now)
	}
	if env.L1Hits[CPU] != 1 || r.Flags&FlagL1Hit == 0 {
		t.Error("L1 hit not recorded")
	}
	// Evict from L1 only: next access is an L2 hit at L1+L2 latency.
	l1.Invalidate(0x40)
	r.Start(CPU, 0x40, 0x40, false, 0)
	if v := s.Process(&r); v != Done || r.Now != 10 {
		t.Fatalf("L2 hit: verdict=%v now=%d, want Done at 10", v, r.Now)
	}
	if env.L2Hits != 1 || r.Flags&FlagL2Hit == 0 {
		t.Error("L2 hit not recorded")
	}
}

func TestCommitStageAllocatesAtIssueTime(t *testing.T) {
	env := &Env{}
	file := cache.NewMSHR(4)
	s := &CommitStage{
		Private: &PrivateStage{PU: GPU, L1: mustCache(t, "l1", 4096), L1Lat: 2, Env: env},
		File:    file,
		Env:     env,
	}
	var r Request
	r.Start(GPU, 0x40, 0x40, false, 0)
	r.Stamp[StageMSHR] = 10 // time the request entered the shared path
	r.Now = 400             // completion after ring/L3/DRAM
	if v := s.Process(&r); v != Done || r.Now != 400 {
		t.Fatalf("commit: verdict=%v now=%d, want Done at 400", v, r.Now)
	}
	// The entry must span [10, 400]: a later request merges with it.
	if ready, ok := file.Outstanding(0x40, 200); !ok || ready != 400 {
		t.Errorf("MSHR entry missing or wrong window: ready=%d ok=%v", ready, ok)
	}
	if !s.Private.L1.Probe(0x40) {
		t.Error("commit must fill the private level")
	}
}
