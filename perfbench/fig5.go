package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"heteromem/internal/arena"
	"heteromem/internal/harness"
	"heteromem/internal/obs"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// fig5Cold runs the paper's headline experiment: the five case-study
// systems over every Table III kernel on the executor, no result cache.
// Programs stream (workload.Open), the backend is DRAM and translation
// is off, so the cores, the memsys chain, cache, dram, noc and trace
// synthesis do nearly all the work. It ignores the seed.
type fig5Cold struct {
	par int

	last    []sim.Result // the last pass's cells, for the simulated counts
	records []harness.CellRecord
	built   int // simulators the executor built in traced passes
	snap    obs.Snapshot
	walls   []float64 // traced pass walls, ns
}

func (f *fig5Cold) setup(dir string) error {
	// A small warm-up sweep: opens the interned programs and brings the
	// runtime's heap to its working size before timing.
	_, err := harness.Executor{Par: f.par}.RunCaseStudies(harness.QuickKernels())
	return err
}

func (f *fig5Cold) pass(tr *tracer, g *gate) (passStats, error) {
	var o *harness.Observer
	var buf bytes.Buffer
	if tr != nil {
		o = &harness.Observer{Ledger: obs.NewLedger(&buf), HostProfEvery: hostProfEvery}
	}
	root := tr.begin("pass", -1)
	sp := tr.begin("harness.RunSystems", 0)
	t0 := time.Now()
	cells, runErr := harness.Executor{Par: f.par, Obs: o}.RunCaseStudies(harness.DefaultKernels())
	ps := passStats{wall: time.Since(t0)}
	tr.end(sp)
	tr.end(root)

	if runErr != nil {
		// RunSystems returns no cells when any fails: count them all.
		for _, k := range harness.DefaultKernels() {
			for _, s := range systems.CaseStudies() {
				g.check(cellID(s.Name, k), sim.Result{}, runErr)
			}
		}
		return ps, nil
	}
	f.last = f.last[:0]
	for _, c := range cells {
		g.check(cellID(c.System, c.Kernel), c.Result, nil)
		f.last = append(f.last, c.Result)
		ps.cells++
		ps.insts += insts(c.Result)
	}
	if tr != nil {
		f.walls = append(f.walls, float64(tr.spans[root].dur()))
		f.snap.Merge(o.Metrics())
		if err := o.Ledger.Close(); err != nil {
			return ps, err
		}
		// Every RunSystems call builds a fresh pool: one simulator per
		// (worker, system) pair the pass's cells used.
		type pooled struct {
			worker int
			system string
		}
		built := map[pooled]bool{}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var rec harness.CellRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err == nil && rec.T == "cell" {
				f.records = append(f.records, rec)
				built[pooled{rec.Worker, rec.System}] = true
			}
		}
		f.built += len(built)
	}
	return ps, nil
}

// expect has nothing to add: every cell has a seed-independent
// reference digest.
func (f *fig5Cold) expect(g *gate) error { return nil }

func (f *fig5Cold) layers(tr *tracer, m map[string]float64) (ledger, error) {
	simCounts(m, f.last)
	led := ledger{par: f.par}

	// Executor: cell wall and queue wait from the observer's ledger, and
	// idle worker time: par × pass wall minus the cells' wall time.
	var cellWall, queue []float64
	var busy, cellsInsts float64
	for _, r := range f.records {
		cellWall = append(cellWall, float64(r.WallNS)/1e9)
		queue = append(queue, float64(r.QueueWaitNS)/1e9)
		busy += float64(r.WallNS)
	}
	for _, w := range f.walls {
		led.wallNS += w
	}
	passes := float64(len(f.walls))
	for _, r := range f.last {
		cellsInsts += float64(insts(r))
	}
	m["harness.cell_s_p50"] = median(cellWall)
	m["harness.queue_wait_s_p50"] = median(queue)
	idle := float64(f.par)*led.wallNS - busy
	m["harness.worker_idle_frac"] = share(idle, float64(f.par)*led.wallNS)
	m["sim.run_ns_per_inst"] = share(busy, cellsInsts*passes)

	// Outside-in probes on the workload's own inputs, building the
	// simulators from one arena as an executor worker does.
	newNS, resetNS, err := probeSimLifecycle(tr, systems.CaseStudies(), "reduction", arena.New())
	if err != nil {
		return led, err
	}
	m["sim.new_ms"] = newNS / 1e6
	m["sim.reset_us"] = resetNS / 1e3
	var progs []*workload.Program
	for _, k := range harness.DefaultKernels() {
		p, err := workload.Open(k)
		if err != nil {
			return led, err
		}
		progs = append(progs, p)
	}
	genNS := probeDrain(tr, progs)
	m["workload.gen_ns_per_inst"] = genNS

	// Pooled simulators: one per (worker, system) per pass, the rest of
	// the cells Reset one.
	nBuilt := float64(f.built)
	led.rows = append(led.rows,
		row{layer: "sim.NewWithOptions", perEvent: newNS, count: nBuilt, measured: -1},
		row{layer: "sim.Reset", perEvent: resetNS, count: float64(len(f.records)) - nBuilt, measured: -1},
		row{layer: "workload/trace generation", perEvent: genNS, count: cellsInsts * passes, measured: -1},
	)
	led.rows = append(led.rows, row{layer: "harness worker idle (measured)", perEvent: idle, count: 1, measured: idle})
	led.addHostLayers(m, f.snap)
	led.notes = append(led.notes, fmt.Sprintf("measured: cells %.3f s of worker time", busy/1e9))
	return led, nil
}

// probeSimLifecycle builds a simulator for each system, runs kernel on
// it and Resets it, and returns the mean ns of NewWithOptions and of
// Reset (after a run, as the passes Reset). ar is the arena the
// simulators are built from, nil for none.
func probeSimLifecycle(tr *tracer, sysList []systems.System, kernel string, ar *arena.Arena) (newNS, resetNS float64, err error) {
	p, err := workload.Open(kernel)
	if err != nil {
		return 0, 0, err
	}
	sims := make([]*sim.Simulator, len(sysList))
	errs := make([]error, len(sysList))
	newNS = tr.probe("sim.NewWithOptions", len(sysList), func(i int) {
		sims[i], errs[i] = sim.NewWithOptions(sysList[i], sim.Options{Arena: ar})
	})
	if err := errors.Join(errs...); err != nil {
		return 0, 0, err
	}
	tr.probe("sim.Run", len(sysList), func(i int) { _, errs[i] = sims[i].Run(p) })
	if err := errors.Join(errs...); err != nil {
		return 0, 0, err
	}
	resetNS = tr.probe("sim.Reset", len(sysList), func(i int) { sims[i].Reset() })
	return newNS, resetNS, nil
}

// probeDrain drains every compute phase's CPU and GPU source through
// trace.FillBatch, outside Run, and returns the ns per instruction.
func probeDrain(tr *tracer, progs []*workload.Program) float64 {
	var srcs []trace.Source
	var n float64
	for _, p := range progs {
		for i := range p.Phases {
			if ph := &p.Phases[i]; ph.Kind != workload.Transfer {
				srcs = append(srcs, ph.CPUSource(), ph.GPUSource())
				n += float64(ph.CPULen() + ph.GPULen())
			}
		}
	}
	buf := make([]trace.Inst, 4096)
	perSource := tr.probe("trace.FillBatch (drain)", len(srcs), func(i int) {
		for trace.FillBatch(srcs[i], buf) > 0 {
		}
	})
	return share(perSource*float64(len(srcs)), n)
}
