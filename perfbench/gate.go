package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"heteromem/internal/sim"
)

// referenceJSON holds the sha256 of every cell's canonical-JSON sim.Result
// as the unmodified simulator computes it, per workload. fig5-cold's
// entry applies to every seed; the others to defaultSeed only.
//
//go:embed reference.json
var referenceJSON []byte

const referencePath = "perfbench/reference.json"

type reference struct {
	// Seed is the seed the digests belong to; nil for a seed-independent
	// workload.
	Seed  *int64            `json:"seed"`
	Cells map[string]string `json:"cells"`
}

func loadReference() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("parsing reference digests: %w", err)
	}
	return refs, nil
}

// digest is the sha256 of the result's canonical JSON encoding.
func digest(res sim.Result) string {
	data, err := json.Marshal(res)
	if err != nil {
		panic("marshaling sim.Result: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func cellID(system, kernel string) string { return system + "|" + kernel }

// gate checks every cell result the benchmark sees. A cell is correct
// when it matches the result an oracle recorded for it before the passes
// (the warm fill, a streamed re-run) or its reference digest. Run
// errors, mismatches, cells no oracle covers and warm-pass cache misses
// all count as failed.
type gate struct {
	ref  map[string]string
	want map[string]sim.Result
	// recording accepts a cell's first answer as its oracle; it is set
	// only when writing the reference digests from the unmodified
	// simulator (--record).
	recording bool

	attempted, failed int
	checks            map[string]map[string]bool // check name -> cells it covered
}

func newGate(ref map[string]string) *gate {
	return &gate{ref: ref, want: map[string]sim.Result{}, checks: map[string]map[string]bool{}}
}

func (g *gate) covered(check, id string) {
	if g.checks[check] == nil {
		g.checks[check] = map[string]bool{}
	}
	g.checks[check][id] = true
}

// expect records an oracle's result for a cell before any pass sees it.
func (g *gate) expect(check, id string, res sim.Result) {
	if d, ok := g.ref[id]; ok {
		if digest(res) != d {
			// The oracle disagrees with the reference: leave the
			// reference as the only truth for this cell.
			return
		}
		g.covered("reference digest", id)
	}
	g.covered(check, id)
	g.want[id] = res
}

// check counts one answered cell.
func (g *gate) check(id string, res sim.Result, err error) {
	g.attempted++
	if err != nil {
		g.failed++
		return
	}
	if w, ok := g.want[id]; ok {
		if res != w {
			g.failed++
		}
		return
	}
	if d, ok := g.ref[id]; ok {
		if digest(res) != d {
			g.failed++
			return
		}
		g.covered("reference digest", id)
		g.want[id] = res
		return
	}
	if g.recording {
		g.covered("recorded", id)
		g.want[id] = res
		return
	}
	g.covered("no oracle (failed)", id)
	g.failed++
}

// misses counts warm-pass cache misses as failures.
func (g *gate) misses(n int) { g.failed += n }

// report prints which checks covered how many distinct cells.
func (g *gate) report() {
	names := make([]string, 0, len(g.checks))
	for n := range g.checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# check %-30s %d cells\n", n+":", len(g.checks[n]))
	}
	fmt.Printf("# failed %d of %d attempted cells (failed_frac %.4g)\n", g.failed, g.attempted, share(float64(g.failed), float64(g.attempted)))
}

// record writes the digests of every accepted cell into the reference
// file as the named workload's entry (seed nil when the workload ignores it).
func (g *gate) record(name string, seed *int64) error {
	refs, err := loadReference()
	if err != nil {
		return err
	}
	cells := map[string]string{}
	for id, res := range g.want {
		cells[id] = digest(res)
	}
	refs[name] = reference{Seed: seed, Cells: cells}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(data, '\n'), 0o644)
}
