package sim

import (
	"bytes"
	"strings"
	"testing"

	"heteromem/internal/addrspace"
	"heteromem/internal/locality"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// run executes kernel on sys with a fresh simulator.
func run(t *testing.T, sys systems.System, kernel string) Result {
	t.Helper()
	s, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.MustGenerate(kernel))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllSystemsRunReduction(t *testing.T) {
	for _, sys := range systems.CaseStudies() {
		res := run(t, sys, "reduction")
		if res.Total() == 0 {
			t.Errorf("%s: zero total time", sys.Name)
		}
		if res.Parallel == 0 {
			t.Errorf("%s: zero parallel time", sys.Name)
		}
		if res.Sequential == 0 {
			t.Errorf("%s: zero sequential time", sys.Name)
		}
		if res.CPU.Instructions == 0 || res.GPU.Instructions == 0 {
			t.Errorf("%s: cores idle: %+v %+v", sys.Name, res.CPU, res.GPU)
		}
	}
}

func TestParallelDominates(t *testing.T) {
	// Figure 5: "the majority of execution time is spent on parallel
	// computation".
	for _, sys := range systems.CaseStudies() {
		res := run(t, sys, "reduction")
		if res.Parallel < res.Sequential || res.Parallel < res.Communication {
			t.Errorf("%s: parallel (%v) does not dominate seq (%v) / comm (%v)",
				sys.Name, res.Parallel, res.Sequential, res.Communication)
		}
	}
}

func TestCommunicationOrdering(t *testing.T) {
	// Figure 6: PCI-E systems pay far more than Fusion; IDEAL pays zero.
	cuda := run(t, systems.CPUGPU(), "reduction")
	lrb := run(t, systems.LRB(), "reduction")
	fusion := run(t, systems.Fusion(), "reduction")
	ideal := run(t, systems.IdealHetero(), "reduction")

	if ideal.Communication != 0 {
		t.Errorf("IDEAL comm = %v, want 0", ideal.Communication)
	}
	if fusion.Communication == 0 {
		t.Error("Fusion comm should be nonzero (memory accesses for transfers)")
	}
	if cuda.Communication <= fusion.Communication {
		t.Errorf("CPU+GPU comm (%v) not greater than Fusion (%v)", cuda.Communication, fusion.Communication)
	}
	if lrb.Communication <= fusion.Communication {
		t.Errorf("LRB comm (%v) not greater than Fusion (%v)", lrb.Communication, fusion.Communication)
	}
}

func TestGMACHidesCommunication(t *testing.T) {
	// GMAC's asynchronous copies overlap computation: its visible
	// communication must be below the synchronous PCI-E system's.
	cuda := run(t, systems.CPUGPU(), "reduction")
	gmac := run(t, systems.GMAC(), "reduction")
	if gmac.Communication >= cuda.Communication {
		t.Errorf("GMAC comm (%v) not hidden vs CPU+GPU (%v)", gmac.Communication, cuda.Communication)
	}
	if gmac.Total() >= cuda.Total() {
		t.Errorf("GMAC total (%v) not faster than CPU+GPU (%v)", gmac.Total(), cuda.Total())
	}
}

func TestSlowSystemsSlowerThanIdeal(t *testing.T) {
	// "CPU+GPU, LRB and GMAC have a longer execution time than those of
	// IDEAL-HETERO and Fusion." GMAC's gap comes from exposed async-copy
	// waits, which show on the transfer-heavy reduction kernel.
	for _, kernel := range []string{"reduction"} {
		ideal := run(t, systems.IdealHetero(), kernel).Total()
		fusion := run(t, systems.Fusion(), kernel).Total()
		for _, sys := range []systems.System{systems.CPUGPU(), systems.LRB(), systems.GMAC()} {
			tot := run(t, sys, kernel).Total()
			if tot <= ideal {
				t.Errorf("%s %s total (%v) not slower than IDEAL (%v)", sys.Name, kernel, tot, ideal)
			}
			if tot <= fusion {
				t.Errorf("%s %s total (%v) not slower than Fusion (%v)", sys.Name, kernel, tot, fusion)
			}
		}
	}
}

func TestLRBEvents(t *testing.T) {
	res := run(t, systems.LRB(), "reduction")
	if res.PageFaults == 0 {
		t.Error("LRB recorded no first-touch page faults")
	}
	if res.OwnershipOps == 0 {
		t.Error("LRB recorded no ownership operations")
	}
	if res.Space.OwnershipChanges == 0 {
		t.Error("address space saw no ownership handovers")
	}
	// Non-LRB systems see none of this.
	cuda := run(t, systems.CPUGPU(), "reduction")
	if cuda.PageFaults != 0 || cuda.OwnershipOps != 0 {
		t.Errorf("CPU+GPU has LRB events: %d faults, %d ownership ops", cuda.PageFaults, cuda.OwnershipOps)
	}
}

func TestKMeanFaultsOncePerObject(t *testing.T) {
	// k-mean transfers to the same object three times; only the first
	// touch faults (large pages cover the object).
	res := run(t, systems.LRB(), "k-mean")
	if res.PageFaults != 1 {
		t.Errorf("k-mean page faults = %d, want 1", res.PageFaults)
	}
	if res.Fabric.Transfers != 3 {
		t.Errorf("LRB k-mean fabric transfers = %d, want 3 h2d", res.Fabric.Transfers)
	}
}

func TestFigure7AddressSpacesNearIdentical(t *testing.T) {
	// Figure 7: with ideal communication and a shared cache, the four
	// address-space options perform within a whisker of each other.
	var totals []float64
	for _, m := range addrspace.AllModels() {
		res := run(t, systems.ForModel(m), "reduction")
		totals = append(totals, float64(res.Total()))
	}
	lo, hi := totals[0], totals[0]
	for _, v := range totals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if (hi-lo)/hi > 0.01 {
		t.Errorf("address-space totals differ by %.2f%%, want <1%%: %v", (hi-lo)/hi*100, totals)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	res := run(t, systems.CPUGPU(), "merge-sort")
	if res.Total() != res.Sequential+res.Parallel+res.Communication {
		t.Error("Total != seq+par+comm")
	}
	frac := res.CommFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("comm fraction %v out of (0,1)", frac)
	}
	seq, par, com := res.Normalized(res)
	if s := seq + par + com; s < 0.999 || s > 1.001 {
		t.Errorf("self-normalised breakdown sums to %v", s)
	}
}

func TestSpaceAccounting(t *testing.T) {
	res := run(t, systems.LRB(), "reduction")
	if res.Space.Allocs == 0 {
		t.Error("no allocations recorded")
	}
	// Shared objects must be mapped in both page tables under PAS.
	if res.Space.MapUpdates[0] == 0 || res.Space.MapUpdates[1] == 0 {
		t.Errorf("mapping updates %v; shared data must map on both PUs", res.Space.MapUpdates)
	}
}

func TestDisjointRemapsSharedObjects(t *testing.T) {
	// Under the disjoint model the program's shared objects degrade to
	// private allocations instead of failing.
	s := MustNew(systems.CPUGPU())
	if _, err := s.Run(workload.MustGenerate("reduction")); err != nil {
		t.Fatalf("disjoint run failed: %v", err)
	}
	if s.Space().LiveObjects() == 0 {
		t.Fatal("no live objects after allocation")
	}
}

func TestDeterministicResults(t *testing.T) {
	a := run(t, systems.LRB(), "reduction")
	b := run(t, systems.LRB(), "reduction")
	if a.Total() != b.Total() || a.Communication != b.Communication {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Total(), a.Communication, b.Total(), b.Communication)
	}
}

func TestCoalescingAblation(t *testing.T) {
	sys := systems.IdealHetero()
	base, err := NewWithOptions(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := base.Run(workload.MustGenerate("reduction"))
	if err != nil {
		t.Fatal(err)
	}
	nocoal, err := NewWithOptions(sys, Options{DisableCoalescing: true})
	if err != nil {
		t.Fatal(err)
	}
	resNo, err := nocoal.Run(workload.MustGenerate("reduction"))
	if err != nil {
		t.Fatal(err)
	}
	if resNo.GPU.LineRequests <= resBase.GPU.LineRequests {
		t.Errorf("uncoalesced requests (%d) not more than coalesced (%d)",
			resNo.GPU.LineRequests, resBase.GPU.LineRequests)
	}
	if resNo.Total() <= resBase.Total() {
		t.Errorf("uncoalesced run (%v) not slower than coalesced (%v)", resNo.Total(), resBase.Total())
	}
}

func TestLocalitySchemeCostsOnlyPushes(t *testing.T) {
	// Section V-D: "The locality management option itself does not affect
	// performance except for the additional instructions of push."
	sys := systems.ForModel(addrspace.PartiallyShared)
	p := workload.MustGenerate("reduction")

	base, err := NewWithOptions(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := base.Run(p)
	if err != nil {
		t.Fatal(err)
	}

	scheme := locality.ImplPrivExplShared
	expl, err := NewWithOptions(sys, Options{Locality: &scheme})
	if err != nil {
		t.Fatal(err)
	}
	resExpl, err := expl.Run(p)
	if err != nil {
		t.Fatal(err)
	}

	pushes := resExpl.CPU.PushOps + resExpl.GPU.PushOps
	if pushes == 0 {
		t.Fatal("explicit scheme injected no pushes")
	}
	if resBase.CPU.PushOps+resBase.GPU.PushOps != 0 {
		t.Fatal("implicit run has pushes")
	}
	// The scheme must not add more than the push-placement cost (a few
	// percent); it may *help*, because pushed data prewarms the shared
	// cache — a benefit the paper's cost-only model did not capture.
	rb, re := float64(resBase.Total()), float64(resExpl.Total())
	diff := (re - rb) / rb
	if diff > 0.05 {
		t.Errorf("scheme slowed the run by %.2f%% (base %v, explicit %v); pushes should cost almost nothing",
			diff*100, resBase.Total(), resExpl.Total())
	}
	if diff < -0.25 {
		t.Errorf("scheme sped the run up by %.2f%%; prewarming cannot plausibly save a quarter of the time", -diff*100)
	}
	// Explicit blocks landed in the L3 with their locality bit set.
	if expl.Hierarchy().Stats().Pushes == 0 {
		t.Error("hierarchy saw no pushes")
	}
}

func TestFaultGranularity(t *testing.T) {
	// LRB with host-sized (4 KB) fault granularity pays one lib-pf per
	// page of the 320512-byte transfer instead of one per object.
	sys := systems.LRB()
	sys.FaultGranularityBytes = 4096
	s := MustNew(sys)
	res, err := s.Run(workload.MustGenerate("reduction"))
	if err != nil {
		t.Fatal(err)
	}
	wantFaults := (320512 + 4095) / 4096
	if res.PageFaults != wantFaults {
		t.Fatalf("4KB-granule faults = %d, want %d", res.PageFaults, wantFaults)
	}
	// Large pages (the default) fault once and are much cheaper.
	large := run(t, systems.LRB(), "reduction")
	if large.PageFaults != 1 {
		t.Fatalf("large-page faults = %d, want 1", large.PageFaults)
	}
	if res.Communication <= large.Communication*10 {
		t.Fatalf("small pages (%v comm) not dramatically worse than large (%v comm)",
			res.Communication, large.Communication)
	}
}

func TestLocalitySchemeRejectedForModel(t *testing.T) {
	// A shared-space scheme is ill-formed under the disjoint model.
	scheme := locality.ImplPrivExplShared
	if _, err := NewWithOptions(systems.CPUGPU(), Options{Locality: &scheme}); err == nil {
		t.Fatal("shared-space scheme accepted under disjoint model")
	}
}

// A loaded program is still checked on every Run: its phases are exported
// and mutable, so an instruction edited after LoadProgram must be
// rejected with an error before it reaches the cores.
func TestRunRejectsProgramEditedAfterLoad(t *testing.T) {
	var buf bytes.Buffer
	if err := workload.SaveProgram(&buf, workload.MustGenerate("reduction")); err != nil {
		t.Fatal(err)
	}
	p, err := workload.LoadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	edited := false
	for i := range p.Phases {
		if gpu := p.Phases[i].GPU; len(gpu) > 0 {
			gpu[len(gpu)/2].Kind = 200
			edited = true
			break
		}
	}
	if !edited {
		t.Fatal("reduction has no materialized GPU instruction to edit")
	}
	_, err = MustNew(systems.CPUGPU()).Run(p)
	if err == nil || !strings.Contains(err.Error(), "invalid kind 200") {
		t.Fatalf("Run on edited program: err = %v, want invalid kind 200", err)
	}
}

func BenchmarkRunReductionCUDA(b *testing.B) {
	p := workload.MustGenerate("reduction")
	for i := 0; i < b.N; i++ {
		s := MustNew(systems.CPUGPU())
		if _, err := s.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
