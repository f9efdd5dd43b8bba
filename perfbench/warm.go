package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// warmPerStratum sizes the pool: one point per (mem_tech, translation)
// stratum, 20 points, × the two cheap kernels = 40 cells to fill.
const warmPerStratum = 1

// warmClients is how many clients one pass serves. The number is chosen
// for the pass's length (a good fraction of a second, so one pass is not
// a few milliseconds of noise), not taken from a measured caller.
const warmClients = 3000

// warmRequest is one client's RunSystems call; ids[k*len(sys)+s] names
// its cells in the executor's kernel-major, system-minor order.
type warmRequest struct {
	sys     []systems.System
	kernels []string
	ids     []string
}

// warmRevisit is re-run traffic against the result cache. Set-up fills a
// fresh cache directory with the pool. A pass is a seeded stream of
// clients, each shaped like a `hetsweep -cache` (or `hetsim -cache`)
// re-run: it opens a fresh rescache.Store on the directory, sends one
// small RunSystems request over a few of the pool's cells, and is done.
// Each cell a client asks for is touched once in its store, so every
// answer is a disk-tier hit, and every request derives its keys
// (systems.Hash per system, WorkloadFingerprint per kernel). The cache,
// key derivation and the executor's all-hit probe loop do all the work;
// nothing is simulated.
type warmRevisit struct {
	seed    int64
	par     int
	kernels []string
	pool    []systems.System
	reqs    []warmRequest
	dir     string
	fill    []harness.Cell

	stats   rescache.Stats // summed over traced passes
	walls   []float64      // traced pass walls, ns
	reqSysN float64        // systems hashed per traced pass
	reqKerN float64        // kernels fingerprinted per traced pass
}

func newWarmRevisit(seed int64, par int) *warmRevisit {
	return &warmRevisit{seed: seed, par: par, kernels: []string{"reduction", "merge-sort"}}
}

func (w *warmRevisit) setup(dir string) error {
	space, err := fullSpace()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.pool = stratifiedSample(rng, space, warmPerStratum)
	w.reqs = w.reqs[:0]
	for i := 0; i < warmClients; i++ {
		var r warmRequest
		for _, j := range rng.Perm(len(w.pool))[:1+rng.Intn(3)] {
			r.sys = append(r.sys, w.pool[j])
		}
		switch rng.Intn(3) {
		case 0:
			r.kernels = w.kernels[:1]
		case 1:
			r.kernels = w.kernels[1:]
		default:
			r.kernels = w.kernels
		}
		for _, k := range r.kernels {
			for _, s := range r.sys {
				r.ids = append(r.ids, cellID(s.Name, k))
			}
		}
		w.reqs = append(w.reqs, r)
	}

	w.dir = filepath.Join(dir, "cache")
	st, err := rescache.Open(w.dir)
	if err != nil {
		return err
	}
	w.fill, err = harness.Executor{Par: w.par, Cache: st}.RunSystems(w.pool, w.kernels)
	if err != nil {
		return err
	}
	return st.Err()
}

func (w *warmRevisit) pass(tr *tracer, g *gate) (passStats, error) {
	var ps passStats
	var stats rescache.Stats
	root := tr.begin("pass", -1)
	t0 := time.Now()
	for i, r := range w.reqs {
		sp := tr.begin("rescache.Open", i)
		st, err := rescache.Open(w.dir)
		tr.end(sp)
		var cells []harness.Cell
		if err == nil {
			sp = tr.begin("harness.RunSystems", i)
			cells, err = harness.Executor{Par: w.par, Cache: st}.RunSystems(r.sys, r.kernels)
			tr.end(sp)
		}
		for j, id := range r.ids {
			if err != nil {
				g.check(id, sim.Result{}, err)
				continue
			}
			g.check(id, cells[j].Result, nil)
			ps.insts += insts(cells[j].Result)
		}
		ps.cells += len(r.ids)
		if st != nil {
			addStats(&stats, st.Stats())
		}
	}
	ps.wall = time.Since(t0)
	tr.end(root)
	g.misses(int(stats.Misses))
	if tr != nil {
		w.walls = append(w.walls, float64(tr.spans[root].dur()))
		addStats(&w.stats, stats)
		for _, r := range w.reqs {
			w.reqSysN += float64(len(r.sys))
			w.reqKerN += float64(len(r.kernels))
		}
	}
	return ps, nil
}

// addStats adds the probe counters of b to a.
func addStats(a *rescache.Stats, b rescache.Stats) {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.MemHits += b.MemHits
	a.DiskHits += b.DiskHits
	a.BytesRead += b.BytesRead
	a.ProbeNS += b.ProbeNS
}

// expect records the set-up fill as the oracle for every warm hit.
func (w *warmRevisit) expect(g *gate) error {
	for _, c := range w.fill {
		g.expect("warm hit == set-up fill", cellID(c.System, c.Kernel), c.Result)
	}
	return nil
}

// keyProbeReps and cacheProbeReps repeat each key-derivation and each
// cache probe over the whole pool.
const (
	keyProbeReps   = 200
	cacheProbeReps = 5
)

func (w *warmRevisit) layers(tr *tracer, m map[string]float64) (ledger, error) {
	var results []sim.Result
	for _, c := range w.fill {
		results = append(results, c.Result)
	}
	simCounts(m, results)
	led := ledger{par: 1}
	for _, x := range w.walls {
		led.wallNS += x
	}

	// Per-cell latency as the executor answers a request.
	var perCell []float64
	for _, s := range tr.spans {
		if s.Name == "harness.RunSystems" {
			perCell = append(perCell, float64(s.dur())/1e9/float64(len(w.reqs[s.Cell].ids)))
		}
	}
	m["harness.cell_s_p50"] = median(perCell)

	// Outside-in probes on the pool's own points, programs and blobs.
	progs := map[string]*workload.Program{}
	for _, k := range w.kernels {
		p, err := workload.Open(k)
		if err != nil {
			return led, err
		}
		progs[k] = p
	}
	hashNS := tr.probe("systems.Hash", keyProbeReps*len(w.pool), func(i int) { systems.Hash(w.pool[i%len(w.pool)]) })
	fpNS := tr.probe("harness.WorkloadFingerprint", keyProbeReps*len(w.kernels), func(i int) {
		harness.WorkloadFingerprint(progs[w.kernels[i%len(w.kernels)]])
	})
	// The pool's cells in fill order, and their cache keys.
	sysOf := map[string]systems.System{}
	for _, s := range w.pool {
		sysOf[s.Name] = s
	}
	keyOf := func(c harness.Cell) rescache.Key {
		return harness.PointKey(sysOf[c.System], progs[c.Kernel], sim.Options{})
	}
	keys := make([]rescache.Key, len(w.fill))
	for i, c := range w.fill {
		keys[i] = keyOf(c)
	}
	keyNS := tr.probe("harness.PointKey", keyProbeReps*len(w.fill), func(i int) { keyOf(w.fill[i%len(w.fill)]) })
	m["systems.hash_us"] = hashNS / 1e3
	m["harness.workload_fp_us"] = fpNS / 1e3
	m["harness.point_key_us"] = keyNS / 1e3

	var openErr error
	openProbeNS := tr.probe("rescache.Open", keyProbeReps, func(int) {
		if _, err := rescache.Open(w.dir); err != nil {
			openErr = err
		}
	})
	if openErr != nil {
		return led, openErr
	}
	var diskNS, memNS, putNS float64
	for r := 0; r < cacheProbeReps; r++ {
		st, err := rescache.Open(w.dir)
		if err != nil {
			return led, err
		}
		diskNS += tr.probe("rescache.Get (disk tier)", len(keys), func(i int) {
			if _, ok := st.Get(keys[i]); !ok {
				err = fmt.Errorf("probe: pool cell %d missed the filled cache", i)
			}
		})
		memNS += tr.probe("rescache.Get (memory tier)", len(keys), func(i int) { st.Get(keys[i]) })
		if err != nil {
			return led, err
		}
		put, err := rescache.Open(filepath.Join(filepath.Dir(w.dir), fmt.Sprintf("put-probe-%d", r)))
		if err != nil {
			return led, err
		}
		putNS += tr.probe("rescache.Put", len(keys), func(i int) {
			if perr := put.Put(keys[i], w.fill[i].Result); perr != nil {
				err = perr
			}
		})
		if err != nil {
			return led, err
		}
	}
	diskNS, memNS, putNS = diskNS/cacheProbeReps, memNS/cacheProbeReps, putNS/cacheProbeReps
	m["rescache.disk_get_us"] = diskNS / 1e3
	m["rescache.mem_get_us"] = memNS / 1e3
	m["rescache.put_us"] = putNS / 1e3
	m["rescache.hit_ratio"] = share(float64(w.stats.Hits), float64(w.stats.Hits+w.stats.Misses))
	m["rescache.disk_hit_frac"] = share(float64(w.stats.DiskHits), float64(w.stats.Hits))
	m["rescache.bytes_read_per_hit"] = share(float64(w.stats.BytesRead), float64(w.stats.DiskHits))

	reqNS, reqs := tr.totalNS("harness.RunSystems")
	openNS, opens := tr.totalNS("rescache.Open")
	led.rows = append(led.rows,
		row{layer: "rescache.Open", perEvent: openProbeNS, count: float64(opens), measured: float64(openNS)},
		row{layer: "systems.Hash", perEvent: hashNS, count: w.reqSysN, measured: -1},
		row{layer: "harness.WorkloadFingerprint", perEvent: fpNS, count: w.reqKerN, measured: -1},
		row{layer: "rescache.Get disk tier", perEvent: diskNS, count: float64(w.stats.DiskHits), measured: -1},
		row{layer: "rescache.Get memory tier", perEvent: memNS, count: float64(w.stats.MemHits), measured: -1},
	)
	led.notes = append(led.notes,
		fmt.Sprintf("measured: %d Executor.RunSystems spans %.3f s in all, of which rescache.Get %.3f s (Store probe_ns)", reqs, float64(reqNS)/1e9, float64(w.stats.ProbeNS)/1e9),
		"unprobed: the executor's per-request set-up (program interning, slices, the job channel) has no outside-in probe; its time is the residual")
	return led, nil
}
