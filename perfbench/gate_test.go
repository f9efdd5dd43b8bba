package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

func runCell(t *testing.T, sys systems.System, kernel string) sim.Result {
	t.Helper()
	s, err := sim.New(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.MustOpen(kernel))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReferenceMatchesSimulator pins the committed digests to the
// simulator: a fresh run of a fig5-cold cell hashes to its reference.
func TestReferenceMatchesSimulator(t *testing.T) {
	refs, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	id := cellID(systems.LRB().Name, "reduction")
	want, ok := refs["fig5-cold"].Cells[id]
	if !ok {
		t.Fatalf("no reference digest for %s", id)
	}
	if got := digest(runCell(t, systems.LRB(), "reduction")); got != want {
		t.Fatalf("digest of %s = %s, reference %s", id, got, want)
	}
}

// TestGateCountsCorruptedResults feeds the gate one correct and one
// corrupted answer under each of its checks.
func TestGateCountsCorruptedResults(t *testing.T) {
	good := runCell(t, systems.LRB(), "reduction")
	bad := good
	bad.Communication++
	id := cellID(good.System, good.Kernel)

	t.Run("reference digest", func(t *testing.T) {
		g := newGate(map[string]string{id: digest(good)})
		g.check(id, bad, nil)
		g.check(id, good, nil)
		g.check(id, bad, nil)
		if g.attempted != 3 || g.failed != 2 {
			t.Fatalf("attempted %d failed %d, want 3 and 2", g.attempted, g.failed)
		}
	})
	t.Run("oracle", func(t *testing.T) {
		g := newGate(nil)
		g.expect("warm hit == set-up fill", id, good)
		g.check(id, good, nil)
		g.check(id, bad, nil)
		if g.failed != 1 {
			t.Fatalf("failed %d, want 1", g.failed)
		}
	})
	t.Run("no oracle", func(t *testing.T) {
		g := newGate(nil)
		g.check(id, good, nil)
		if g.failed != 1 {
			t.Fatalf("failed %d, want a cell no oracle covers counted as failed", g.failed)
		}
	})
	t.Run("errors and misses", func(t *testing.T) {
		g := newGate(nil)
		g.check(id, sim.Result{}, os.ErrNotExist)
		g.misses(2)
		if g.failed != 3 {
			t.Fatalf("failed %d, want 3", g.failed)
		}
	})
}

// TestWarmRevisitCatchesCorruptedBlob corrupts one result blob in the
// filled cache, with a well-formed envelope so the store serves it, and
// checks that a warm pass counts every answer of that cell as failed.
func TestWarmRevisitCatchesCorruptedBlob(t *testing.T) {
	refs, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	g := newGate(refs["warm-revisit"].Cells)
	w := newWarmRevisit(defaultSeed, 2)
	if err := w.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := w.expect(g); err != nil {
		t.Fatal(err)
	}
	clean, err := w.pass(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if g.failed != 0 || g.attempted != clean.cells {
		t.Fatalf("clean pass: failed %d of %d, want 0 of %d", g.failed, g.attempted, clean.cells)
	}

	blobs, err := filepath.Glob(filepath.Join(w.dir, "v*", "*", "*.json"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no cache blobs under %s (%v)", w.dir, err)
	}
	data, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	res := env["result"].(map[string]any)
	res["Parallel"] = res["Parallel"].(float64) + 1
	data, err = json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blobs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	g.failed = 0
	if _, err := w.pass(nil, g); err != nil {
		t.Fatal(err)
	}
	var want int
	corrupt := cellID(res["System"].(string), res["Kernel"].(string))
	for _, r := range w.reqs {
		for _, id := range r.ids {
			if id == corrupt {
				want++
			}
		}
	}
	if want == 0 || g.failed != want {
		t.Fatalf("corrupted cell %s: failed %d, want %d", corrupt, g.failed, want)
	}
}
