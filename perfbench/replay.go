package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"heteromem/internal/harness"
	"heteromem/internal/memtech"
	"heteromem/internal/obs"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
	"heteromem/internal/xlat"
)

// fullSpace enumerates every coherent design point: systems.Grid over
// every model, fabric, protocol and fault granularity, times every
// mem_tech and translation preset.
func fullSpace() ([]systems.System, error) {
	var trs []xlat.Spec
	for _, name := range xlat.Presets() {
		s, err := xlat.ParsePreset(name)
		if err != nil {
			return nil, err
		}
		trs = append(trs, s)
	}
	points, _ := systems.Grid{MemTechs: memtech.AllKinds(), Translations: trs}.Enumerate()
	return points, nil
}

// stratifiedSample draws perStratum points from each (mem_tech,
// translation) stratum of the space, so every seed's sample carries the
// same mix of backends and translation front-ends and a pass costs about
// the same whatever the seed.
func stratifiedSample(rng *rand.Rand, points []systems.System, perStratum int) []systems.System {
	var order []string
	strata := map[string][]systems.System{}
	for _, p := range points {
		k := p.MemTech.Kind.String() + "/" + p.Translation.Label()
		if _, ok := strata[k]; !ok {
			order = append(order, k)
		}
		strata[k] = append(strata[k], p)
	}
	var out []systems.System
	for _, k := range order {
		group := strata[k]
		for _, i := range rng.Perm(len(group))[:perStratum] {
			out = append(out, group[i])
		}
	}
	return out
}

// designReplay is the hetsim -program path over a sample of the full
// design space: saved programs are reloaded with workload.LoadProgram
// each pass and replayed, one simulator per point with Reset between
// kernels, on one goroutine. It runs what fig5-cold bypasses:
// materialized replay with Program.Validate on every Run, the xlat
// stage, the HBM, NVM and DRAM-cache backends, and every fabric and
// protocol. The executor and the result cache do nothing here.
type designReplay struct {
	seed    int64
	kernels []string
	points  []systems.System
	paths   []string
	bytes   int64

	last    []sim.Result
	snap    obs.Snapshot
	walls   []float64 // traced pass walls, ns
	runInst float64   // simulated instructions over traced passes
	loadMB  float64   // MB loaded over traced passes
}

// replayPerStratum sizes the sample: one point per (mem_tech, translation)
// stratum, 20 points.
const replayPerStratum = 1

func newDesignReplay(seed int64) *designReplay {
	return &designReplay{seed: seed, kernels: harness.QuickKernels()}
}

func (d *designReplay) setup(dir string) error {
	space, err := fullSpace()
	if err != nil {
		return err
	}
	d.points = stratifiedSample(rand.New(rand.NewSource(d.seed)), space, replayPerStratum)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d.paths, d.bytes = nil, 0
	for _, k := range d.kernels {
		p, err := workload.Open(k)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, k+".prog")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := workload.SaveProgram(f, p); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		d.paths = append(d.paths, path)
		d.bytes += st.Size()
	}
	return nil
}

func loadProgram(path string) (*workload.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.LoadProgram(f)
}

type outcome struct {
	id  string
	res sim.Result
	err error
}

func (d *designReplay) pass(tr *tracer, g *gate) (passStats, error) {
	var reg *obs.Registry
	var hp *obs.HostProf
	if tr != nil {
		reg, hp = obs.NewRegistry(), obs.NewHostProf(hostProfEvery)
	}
	out := make([]outcome, 0, len(d.points)*len(d.kernels))
	root := tr.begin("pass", -1)
	t0 := time.Now()
	var progs []*workload.Program
	var loadErr error
	for _, path := range d.paths {
		sp := tr.begin("workload.LoadProgram", -1)
		p, err := loadProgram(path)
		tr.end(sp)
		if err != nil {
			loadErr = err
			break
		}
		progs = append(progs, p)
	}
	for i, sys := range d.points {
		if loadErr != nil {
			break
		}
		cell := i * len(progs)
		sp := tr.begin("sim.NewWithOptions", cell)
		s, err := sim.NewWithOptions(sys, sim.Options{Metrics: reg, HostProf: hp})
		tr.end(sp)
		for j, p := range progs {
			id := cellID(sys.Name, p.Name)
			if err != nil {
				out = append(out, outcome{id: id, err: err})
				continue
			}
			if j > 0 {
				sp = tr.begin("sim.Reset", cell+j)
				s.Reset()
				tr.end(sp)
			}
			if reg != nil {
				// A new simulator on the shared registry starts from the
				// previous one's counters; each Run is attributed alone.
				reg.Reset()
			}
			sp = tr.begin("sim.Run", cell+j)
			res, runErr := s.Run(p)
			tr.end(sp)
			if reg != nil {
				d.snap.Merge(reg.Snapshot())
			}
			out = append(out, outcome{id: id, res: res, err: runErr})
		}
	}
	ps := passStats{wall: time.Since(t0)}
	tr.end(root)

	if loadErr != nil {
		for _, sys := range d.points {
			for _, k := range d.kernels {
				g.check(cellID(sys.Name, k), sim.Result{}, loadErr)
			}
		}
		return ps, nil
	}
	d.last = d.last[:0]
	for _, o := range out {
		g.check(o.id, o.res, o.err)
		if o.err == nil {
			d.last = append(d.last, o.res)
			ps.cells++
			ps.insts += insts(o.res)
		}
	}
	if tr != nil {
		d.walls = append(d.walls, float64(tr.spans[root].dur()))
		d.runInst += float64(ps.insts)
		d.loadMB += float64(d.bytes) / 1e6
	}
	return ps, nil
}

// expect runs every sampled point from streamed programs
// (workload.Open) and records each cell as the oracle for its replayed
// result. A point whose cells all have reference digests (the default
// seed) is skipped.
func (d *designReplay) expect(g *gate) error {
	for _, sys := range d.points {
		covered := true
		for _, k := range d.kernels {
			if _, ok := g.ref[cellID(sys.Name, k)]; !ok {
				covered = false
			}
		}
		if covered {
			continue
		}
		s, err := sim.New(sys)
		if err != nil {
			return err
		}
		for j, k := range d.kernels {
			p, err := workload.Open(k)
			if err != nil {
				return err
			}
			if j > 0 {
				s.Reset()
			}
			res, err := s.Run(p)
			if err != nil {
				return fmt.Errorf("streamed run of %s on %s: %w", k, sys.Name, err)
			}
			g.expect("streamed workload.Open run", cellID(sys.Name, k), res)
		}
	}
	return nil
}

func (d *designReplay) layers(tr *tracer, m map[string]float64) (ledger, error) {
	simCounts(m, d.last)
	led := ledger{par: 1}
	for _, w := range d.walls {
		led.wallNS += w
	}

	// Outside-in probes on this workload's own inputs: the saved
	// programs and the sampled points.
	progs := make([]*workload.Program, len(d.paths))
	errs := make([]error, len(d.paths))
	perFile := tr.probe("workload.LoadProgram", len(d.paths), func(i int) { progs[i], errs[i] = loadProgram(d.paths[i]) })
	if err := errors.Join(errs...); err != nil {
		return led, err
	}
	loadNSPerMB := share(perFile*float64(len(d.paths)), float64(d.bytes)/1e6)
	m["workload.load_mb_per_s"] = share(1e9, loadNSPerMB)

	var progInsts float64
	for _, p := range progs {
		progInsts += float64(p.TotalInstructions())
	}
	perProg := tr.probe("Program.Validate", len(progs), func(i int) { errs[i] = progs[i].Validate() })
	if err := errors.Join(errs...); err != nil {
		return led, err
	}
	validateNS := share(perProg*float64(len(progs)), progInsts)
	m["workload.validate_ns_per_inst"] = validateNS
	genNS := probeDrain(tr, progs)
	m["workload.gen_ns_per_inst"] = genNS

	newNS, resetNS, err := probeSimLifecycle(tr, d.points, d.kernels[0], nil)
	if err != nil {
		return led, err
	}
	m["sim.new_ms"] = newNS / 1e6
	m["sim.reset_us"] = resetNS / 1e3

	runNS, runs := tr.totalNS("sim.Run")
	m["sim.run_ns_per_inst"] = share(float64(runNS), d.runInst)
	loadNS, _ := tr.totalNS("workload.LoadProgram")
	newSpanNS, news := tr.totalNS("sim.NewWithOptions")
	resetSpanNS, resets := tr.totalNS("sim.Reset")

	led.rows = append(led.rows,
		row{layer: "workload.LoadProgram", perEvent: loadNSPerMB, count: d.loadMB, measured: float64(loadNS)},
		row{layer: "sim.NewWithOptions", perEvent: newNS, count: float64(news), measured: float64(newSpanNS)},
		row{layer: "sim.Reset", perEvent: resetNS, count: float64(resets), measured: float64(resetSpanNS)},
		row{layer: "Program.Validate (in Run)", perEvent: validateNS, count: d.runInst, measured: -1},
		row{layer: "workload/trace replay (cursor)", perEvent: genNS, count: d.runInst, measured: -1},
	)
	led.addHostLayers(m, d.snap)
	led.notes = append(led.notes, fmt.Sprintf("measured: %d Simulator.Run spans %.3f s in all", runs, float64(runNS)/1e9))
	return led, nil
}
