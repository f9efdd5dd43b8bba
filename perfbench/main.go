// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed time and prints every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1), checking every
// cell's result on the way. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 20 --trace 0
//
// run.py builds this package into .bench_build/ and runs it from the
// repository root. Workloads:
//
//   - fig5-cold: the paper's Figure 5 sweep, 30 cells on
//     harness.Executor without a result cache. It ignores the seed.
//   - design-replay: the hetsim -program path. Saved programs are
//     reloaded and replayed on a seeded sample of the full design space
//     (every model, fabric, protocol, mem_tech and translation preset),
//     one simulator per point, on one goroutine.
//   - warm-revisit: re-run traffic against a filled result cache. A pass
//     is a seeded stream of clients shaped like `hetsweep -cache` re-runs:
//     each opens a fresh rescache.Store and sends one small RunSystems
//     request, so every answer is a disk-tier hit.
//
// Facts every run also prints:
//
//   - Load shape: a closed loop from one process. Each request waits for
//     the previous one, and no more goroutines do work than nproc (the
//     executor runs min(2, nproc) workers).
//   - Every cell starts from a fresh or Reset simulator, so the modelled
//     caches start empty.
//   - The model is unvalidated against hardware. The accuracy check is
//     identity with the unmodified simulator's results (reference.json).
//
// End-to-end metrics (--trace 0), all host-side:
//
//   - setup_s: median wall time of the workload's set-up, repeated nine
//     times per run, spread evenly between the passes.
//   - pass_s: median wall time of one untraced pass; the run prints the
//     pass count and quartiles.
//   - cells_per_s, sim_minst_per_s: cells answered, and the simulated
//     instructions of those cells in millions, per second of pass_s. On
//     warm-revisit the cells come from the cache, so sim_minst_per_s is
//     simulated work answered, not simulated.
//   - alloc_mb_per_pass: median MB the Go heap allocates in one pass.
//   - peak_rss_mb: the process's peak resident set (VmHWM).
//
// Failed cells are reported as "failed" against "attempted" in the
// result line rather than as a metric, because on a correct program the
// failed fraction is 0.
//
// Timing is host wall time. A traced run alternates untraced and traced
// passes, records spans around every call the benchmark makes into a
// layer, switches on the program's own host profiler for the layers that
// run inside Simulator.Run, and prints a cost ledger of predicted
// against measured per-layer time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the committed reference digests belong to.
const defaultSeed = 1

// setupReps is how many times a run repeats its set-up, spread evenly
// over the run so the set-ups sample the same stretch of machine time as
// the passes; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 9

// minPasses is the fewest untraced (and, in a traced run, traced) passes
// a run makes, however long they take.
const minPasses = 3

// hostProfEvery samples one in this many memory-pipeline runs in traced
// passes (obs.HostProf).
const hostProfEvery = 64

// buildDir is where run.py builds the benchmark and where runs keep their
// scratch files; it is relative to the repository root.
const buildDir = ".bench_build"

// passStats describes one pass.
type passStats struct {
	wall  time.Duration // host wall time of the timed part
	cells int           // cells answered
	insts uint64        // simulated instructions in those cells
}

// benchWorkload is one benchmark workload.
type benchWorkload interface {
	// setup builds the workload's inputs afresh under dir; the run
	// keeps the state of the last call.
	setup(dir string) error
	// pass runs one pass and checks its cells. tr is nil when untraced.
	pass(tr *tracer, g *gate) (passStats, error)
	// expect records, untimed after the set-ups, the oracle results
	// that the passes' cells are checked against where no reference
	// digest covers them.
	expect(g *gate) error
	// layers runs the outside-in probes and fills the per-layer metrics
	// and cost-ledger rows from the traced passes.
	layers(tr *tracer, m map[string]float64) (ledger, error)
}

func newWorkload(name string, seed int64, par int) (benchWorkload, error) {
	switch name {
	case "fig5-cold":
		return &fig5Cold{par: par}, nil
	case "design-replay":
		return newDesignReplay(seed), nil
	case "warm-revisit":
		return newWarmRevisit(seed, par), nil
	}
	return nil, fmt.Errorf("unknown workload %q (fig5-cold, design-replay, warm-revisit)", name)
}

func main() {
	name := flag.String("workload", "", "workload to run: fig5-cold, design-replay or warm-revisit")
	seed := flag.Int64("seed", defaultSeed, "seed for the workload's inputs (fig5-cold ignores it)")
	seconds := flag.Int("seconds", 10, "how long the passes run, in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	record := flag.Bool("record", false, "write this run's cell digests into "+referencePath)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced, record bool) error {
	par := min(2, runtime.NumCPU())
	w, err := newWorkload(name, seed, par)
	if err != nil {
		return err
	}
	refs, err := loadReference()
	if err != nil {
		return err
	}
	var refCells map[string]string
	if r, ok := refs[name]; ok && (r.Seed == nil || *r.Seed == seed) {
		refCells = r.Cells
	}
	g := newGate(refCells)
	g.recording = record

	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (unset)"
	}
	fmt.Printf("# workload %s seed %d seconds %d trace %v\n", name, seed, seconds, traced)
	fmt.Printf("# machine: nproc=%d GOMAXPROCS=%d GOGC=%s go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# load: closed loop, one process, %d executor workers (nproc %d); modelled caches start empty; model unvalidated against hardware\n",
		par, runtime.NumCPU())

	dir := filepath.Join(buildDir, "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// setUp runs the workload's set-up afresh; only the newest set-up's
	// state is used, and set-ups are deterministic, so a repeat replaces
	// the state with an identical one.
	var setups []float64
	setUp := func() error {
		n := len(setups)
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", n))
		// A set-up between passes starts from a collected heap (untimed),
		// so it does not pay for the garbage of the pass before it.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(sub); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n > 0 {
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup-%d", n-1)))
		}
		// Collect the set-up's garbage (untimed) so that peak_rss_mb
		// reflects one set-up's working set, not how many of them the
		// collector happened to let pile up.
		runtime.GC()
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}
	if err := w.expect(g); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, withTrace []float64
	var allocMB []float64
	var last passStats
	start := time.Now()
	runFor := time.Duration(seconds) * time.Second
	for i := 0; ; i++ {
		if time.Since(start) >= runFor && len(plain) >= minPasses && (!traced || len(withTrace) >= minPasses) {
			break
		}
		if len(setups) < setupReps && time.Since(start) >= runFor*time.Duration(len(setups))/setupReps {
			if err := setUp(); err != nil {
				return err
			}
		}
		// Every pass starts from a collected heap (untimed), so no pass
		// pays for the garbage of the one before and the peak resident
		// set does not depend on where the collections happened to fall.
		runtime.GC()
		if traced && i%2 == 1 {
			ps, err := w.pass(tr, g)
			if err != nil {
				return err
			}
			withTrace = append(withTrace, ps.wall.Seconds())
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ps, err := w.pass(nil, g)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		plain = append(plain, ps.wall.Seconds())
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		last = ps
	}

	for len(setups) < setupReps {
		if err := setUp(); err != nil {
			return err
		}
	}

	passS := median(plain)
	fmt.Printf("# setup_s median %.4f over %d set-ups %v\n", median(setups), len(setups), fmtList(setups))
	fmt.Printf("# pass_s median %.4f over %d untraced passes (q1 %.4f, q3 %.4f, min %.4f, max %.4f); %d cells, %.2fM simulated instructions per pass\n",
		passS, len(plain), quantile(plain, 0.25), quantile(plain, 0.75), quantile(plain, 0), quantile(plain, 1), last.cells, float64(last.insts)/1e6)
	g.report()

	metrics := map[string]float64{}
	var units map[string]string
	if traced {
		units = perLayerUnits()
		for n := range units {
			metrics[n] = 0
		}
		led, err := w.layers(tr, metrics)
		if err != nil {
			return err
		}
		tracedS := median(withTrace)
		metrics["trace.overhead_frac"] = tracedS/passS - 1
		metrics["trace.coverage_frac"] = tr.coverage()
		metrics["model.residual_frac"] = led.residual()
		fmt.Printf("# traced pass_s median %.4f over %d traced passes (untraced %.4f)\n", tracedS, len(withTrace), passS)
		tr.printSelf()
		led.print()
		path := filepath.Join(buildDir, "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	} else {
		units = endToEndUnits()
		metrics["setup_s"] = median(setups)
		metrics["pass_s"] = passS
		metrics["cells_per_s"] = float64(last.cells) / passS
		metrics["sim_minst_per_s"] = float64(last.insts) / 1e6 / passS
		metrics["alloc_mb_per_pass"] = median(allocMB)
		metrics["peak_rss_mb"] = peakRSSMB()
	}

	if record {
		var s *int64
		if name != "fig5-cold" {
			s = &seed
		}
		if err := g.record(name, s); err != nil {
			return fmt.Errorf("recording reference: %w", err)
		}
		fmt.Printf("# recorded %d cell digests into %s\n", len(g.want), referencePath)
	}
	return printResult(g, metrics, units)
}

func printResult(g *gate, metrics map[string]float64, units map[string]string) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: g.failed == 0 && g.attempted > 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]value{}}
	for n, v := range metrics {
		u, ok := units[n]
		if !ok {
			return fmt.Errorf("metric %s has no unit", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[n] = value{Value: v, Unit: u}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs, the runtime's own footprint is the closest figure.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
