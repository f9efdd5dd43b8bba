package isa

import (
	"fmt"
	"testing"
)

// TestKindStrings pins String over every Kind value: defined kinds keep
// their names and everything else prints as kind(N).
func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		Nop: "nop", ALU: "alu", Mul: "mul", Div: "div", FP: "fp", FDiv: "fdiv",
		Load: "load", Store: "store", Branch: "branch",
		SIMDALU: "simd.alu", SIMDFP: "simd.fp", SIMDLoad: "simd.load", SIMDStore: "simd.store",
		SWLoad: "sw.load", SWStore: "sw.store", Barrier: "barrier",
		APIPCI: "api-pci", APIAcquire: "api-acq", APIRelease: "api-rel",
		APITransfer: "api-tr", LibPageFault: "lib-pf", Push: "push",
	}
	for v := 0; v < 256; v++ {
		k := Kind(v)
		want, ok := names[k]
		if !ok {
			want = fmt.Sprintf("kind(%d)", v)
		}
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", v, got, want)
		}
	}
}

// TestValid pins Valid over every Kind value: it holds exactly for the
// kinds AllKinds lists, gaps between the kind groups included.
func TestValid(t *testing.T) {
	defined := map[Kind]bool{}
	for _, k := range AllKinds() {
		defined[k] = true
	}
	for v := 0; v < 256; v++ {
		if k := Kind(v); k.Valid() != defined[k] {
			t.Errorf("Kind(%d).Valid() = %v, want %v", v, k.Valid(), defined[k])
		}
	}
}

func TestClassification(t *testing.T) {
	if !Load.IsMem() || !SIMDStore.IsMem() {
		t.Error("Load/SIMDStore must be memory ops")
	}
	if SWLoad.IsMem() {
		t.Error("SWLoad must not hit the hardware hierarchy")
	}
	if !SWLoad.IsSoftwareCache() || !SWStore.IsSoftwareCache() {
		t.Error("SWLoad/SWStore are software-cache ops")
	}
	if !Load.IsLoad() || !SWLoad.IsLoad() || Store.IsLoad() {
		t.Error("IsLoad misclassified")
	}
	if !Store.IsStore() || !SWStore.IsStore() || Load.IsStore() {
		t.Error("IsStore misclassified")
	}
	if !SIMDALU.IsSIMD() || ALU.IsSIMD() {
		t.Error("IsSIMD misclassified")
	}
	for _, k := range []Kind{APIPCI, APIAcquire, APIRelease, APITransfer, LibPageFault} {
		if !k.IsComm() {
			t.Errorf("%v should be a communication instruction", k)
		}
	}
	if Push.IsComm() {
		t.Error("push is locality control, not communication")
	}
}

func TestExecLatency(t *testing.T) {
	if ALU.ExecLatency() != 1 {
		t.Error("ALU latency != 1")
	}
	if FP.ExecLatency() != 4 {
		t.Error("FP latency != 4")
	}
	if Div.ExecLatency() <= Mul.ExecLatency() {
		t.Error("Div should be slower than Mul")
	}
	// Memory and comm instructions defer to the memory system / fabric.
	for _, k := range []Kind{Load, Store, SIMDLoad, APIPCI, LibPageFault} {
		if k.ExecLatency() != 0 {
			t.Errorf("%v should have no fixed exec latency", k)
		}
	}
}

func TestKindSetsDisjoint(t *testing.T) {
	for _, k := range AllKinds() {
		n := 0
		if k.IsMem() {
			n++
		}
		if k.IsComm() {
			n++
		}
		if k.IsSoftwareCache() {
			n++
		}
		if n > 1 {
			t.Errorf("%v belongs to more than one of mem/comm/swcache", k)
		}
	}
}
