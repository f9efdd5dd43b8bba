package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"heteromem/internal/memsys"
	"heteromem/internal/obs"
	"heteromem/internal/sim"
)

func endToEndUnits() map[string]string {
	return map[string]string{
		"setup_s":           "s",
		"pass_s":            "s",
		"cells_per_s":       "1/s",
		"sim_minst_per_s":   "Minst/s",
		"alloc_mb_per_pass": "MB",
		"peak_rss_mb":       "MB",
	}
}

// perLayerUnits lists every per-layer metric. A traced run prints all of
// them; a layer the workload does not run reads 0.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"harness.cell_s_p50":            "s",
		"harness.queue_wait_s_p50":      "s",
		"harness.worker_idle_frac":      "frac",
		"harness.point_key_us":          "us",
		"harness.workload_fp_us":        "us",
		"systems.hash_us":               "us",
		"rescache.disk_get_us":          "us",
		"rescache.mem_get_us":           "us",
		"rescache.put_us":               "us",
		"rescache.hit_ratio":            "frac",
		"rescache.disk_hit_frac":        "frac",
		"rescache.bytes_read_per_hit":   "B",
		"sim.new_ms":                    "ms",
		"sim.reset_us":                  "us",
		"sim.run_ns_per_inst":           "ns",
		"sim.phase.sequential_frac":     "frac",
		"sim.phase.parallel_frac":       "frac",
		"sim.phase.transfer_frac":       "frac",
		"workload.gen_ns_per_inst":      "ns",
		"workload.validate_ns_per_inst": "ns",
		"workload.load_mb_per_s":        "MB/s",
		"trace.overhead_frac":           "frac",
		"trace.coverage_frac":           "frac",
		"model.residual_frac":           "frac",
	}
	for _, s := range memsys.ProfSections() {
		u[s+".ns_per_sample"] = "ns"
	}
	for _, c := range []string{
		"cpu.instructions", "gpu.instructions", "cpu.mispredicts", "gpu.line_requests",
		"mem.accesses", "mem.dram_fills", "mem.xlat_misses", "noc.messages", "noc.hops",
		"dram.requests", "comm.transfers", "comm.bytes", "addrspace.first_touch_faults",
	} {
		u[c] = "count"
	}
	for _, r := range []string{"mem.l1_hit_ratio", "mem.l3_hit_ratio", "dram.row_hit_ratio"} {
		u[r] = "frac"
	}
	return u
}

// simCounts fills the simulated event counts behind each layer, summed
// over the distinct cells of one pass. They repeat exactly for a seed.
func simCounts(m map[string]float64, results []sim.Result) {
	var acc, l1, l3, fills, rowHits, rowMiss float64
	for _, r := range results {
		m["cpu.instructions"] += float64(r.CPU.Instructions)
		m["gpu.instructions"] += float64(r.GPU.Instructions)
		m["cpu.mispredicts"] += float64(r.CPU.Mispredicts)
		m["gpu.line_requests"] += float64(r.GPU.LineRequests)
		for pu := range r.Mem.Accesses {
			acc += float64(r.Mem.Accesses[pu])
			l1 += float64(r.Mem.L1Hits[pu])
			l3 += float64(r.Mem.L3Hits[pu])
			fills += float64(r.Mem.DRAMFills[pu])
			m["mem.xlat_misses"] += float64(r.Mem.XlatMisses[pu])
		}
		m["noc.messages"] += float64(r.Ring.Messages)
		m["noc.hops"] += float64(r.Ring.TotalHops)
		m["dram.requests"] += float64(r.DRAM.Requests)
		rowHits += float64(r.DRAM.RowHits)
		rowMiss += float64(r.DRAM.RowMisses)
		m["comm.transfers"] += float64(r.Fabric.Transfers)
		m["comm.bytes"] += float64(r.Fabric.Bytes)
		m["addrspace.first_touch_faults"] += float64(r.Space.FirstTouchFaults)
	}
	m["mem.accesses"] = acc
	m["mem.dram_fills"] = fills
	m["mem.l1_hit_ratio"] = share(l1, acc)
	m["mem.l3_hit_ratio"] = share(l3, l3+fills)
	m["dram.row_hit_ratio"] = share(rowHits, rowHits+rowMiss)
}

func insts(r sim.Result) uint64 { return r.CPU.Instructions + r.GPU.Instructions }

// probeClockNS returns the interval a host-profiler sample reports for
// no work at all: the part of one clock-read pair that every stage
// sample includes.
func probeClockNS() float64 {
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return float64(sum) / n
}

// addHostLayers fills the metrics the program's own host profiler
// supplies (sim.Options.HostProf): ns per sampled memory-pipeline stage
// and the share of Run's host time in each phase kind. It adds a ledger
// row per stage: ns per sample, less the clock-read pair every sample
// pays, × the estimated number of stage runs (samples × the sampling
// period).
func (l *ledger) addHostLayers(m map[string]float64, snap obs.Snapshot) {
	clockNS := probeClockNS()
	for _, s := range memsys.ProfSections() {
		ns, n := float64(snap.Counters["host."+s+".ns"]), float64(snap.Counters["host."+s+".samples"])
		m[s+".ns_per_sample"] = share(ns, n)
		if n > 0 {
			l.rows = append(l.rows, row{layer: s + " (sampled)", perEvent: math.Max(ns/n-clockNS, 0), count: n * hostProfEvery, measured: -1})
		}
	}
	var phases float64
	for _, k := range []string{"sequential", "parallel", "transfer"} {
		phases += float64(snap.Counters["host.sim.phase."+k+".ns"])
	}
	for _, k := range []string{"sequential", "parallel", "transfer"} {
		m["sim.phase."+k+"_frac"] = share(float64(snap.Counters["host.sim.phase."+k+".ns"]), phases)
	}
	l.notes = append(l.notes,
		fmt.Sprintf("memsys rows: ns per sample less %.1f ns of clock reads, × samples × %d", clockNS, hostProfEvery),
		fmt.Sprintf("measured: Simulator.Run phases %.3f s (host profiler census)", phases/1e9),
		"unprobed: the cpu/gpu StepUntil loops, the L1-hit fast path, clock.Engine and the protocol hooks run inside Run with no outside-in probe; their time is the residual")
}

// row is one cost-ledger line: a layer's cost per event times its event
// count predicts the host time it takes; measured is the time the trace
// attributes to it directly, or -1 where nothing measures it apart.
type row struct {
	layer    string
	perEvent float64 // ns
	count    float64
	measured float64 // ns
}

// ledger predicts a traced pass's wall time from per-layer costs.
// Costs add up on par workers, so the prediction is Σ rows / par.
type ledger struct {
	rows   []row
	wallNS float64 // summed traced pass wall time
	par    int
	notes  []string
}

func (l ledger) predictedNS() float64 {
	var sum float64
	for _, r := range l.rows {
		sum += r.perEvent * r.count
	}
	return sum / float64(l.par)
}

// residual is |predicted − traced wall| / traced wall.
func (l ledger) residual() float64 {
	return share(math.Abs(l.predictedNS()-l.wallNS), l.wallNS)
}

func (l ledger) print() {
	work := l.wallNS * float64(l.par)
	fmt.Printf("# cost ledger: traced pass wall %.3f s on %d worker(s); shares are of %.3f worker-seconds\n", l.wallNS/1e9, l.par, work/1e9)
	fmt.Printf("#   %-34s %12s %14s %11s %7s %11s %7s\n", "layer", "ns/event", "count", "predicted s", "share", "measured s", "share")
	for _, r := range l.rows {
		p := r.perEvent * r.count
		meas, measShare := "-", "-"
		if r.measured >= 0 {
			meas = fmt.Sprintf("%.4f", r.measured/1e9)
			measShare = fmt.Sprintf("%.1f%%", 100*share(r.measured, work))
		}
		fmt.Printf("#   %-34s %12.1f %14.0f %11.4f %6.1f%% %11s %7s\n", r.layer, r.perEvent, r.count, p/1e9, 100*share(p, work), meas, measShare)
	}
	fmt.Printf("# predicted wall %.3f s, traced wall %.3f s, residual %.1f%%\n", l.predictedNS()/1e9, l.wallNS/1e9, 100*l.residual())
	if len(l.notes) > 0 {
		fmt.Printf("# %s\n", strings.Join(l.notes, "\n# "))
	}
}
