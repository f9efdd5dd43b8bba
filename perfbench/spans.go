package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// cell (or one request) share a cell id; parent is the index of the
// enclosing span, -1 for a pass root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
}

// tracer keeps spans in memory until the run ends. All methods are no-ops
// on a nil tracer, which is how untraced passes run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices; calls are nested, one goroutine
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string, cell int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Cell: cell})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

func (s span) dur() int64 { return s.End - s.Start }

// inPass reports, for every span, whether it belongs to a traced pass
// (its root is named "pass") rather than to the outside-in probes.
// Parents precede their children in t.spans.
func (t *tracer) inPass() []bool {
	in := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent < 0 {
			in[i] = s.Name == "pass"
		} else {
			in[i] = in[s.Parent]
		}
	}
	return in
}

// selfNS returns each span name's total self time within the traced
// passes: its spans' durations minus the time their direct children
// cover. Calls are sequential on one goroutine, so children never
// overlap and their durations add.
func (t *tracer) selfNS() map[string]int64 {
	in := t.inPass()
	self := map[string]int64{}
	for i, s := range t.spans {
		if !in[i] {
			continue
		}
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// totalNS returns the summed duration and count of the traced passes'
// spans named name.
func (t *tracer) totalNS(name string) (ns int64, n int) {
	in := t.inPass()
	for i, s := range t.spans {
		if in[i] && s.Name == name {
			ns += s.dur()
			n++
		}
	}
	return ns, n
}

// coverage returns the share of the traced passes' time that their
// direct children, the layer calls, cover.
func (t *tracer) coverage() float64 {
	var root, covered int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == "pass" {
			root += s.dur()
		} else if s.Parent >= 0 && t.spans[s.Parent].Parent < 0 && t.spans[s.Parent].Name == "pass" {
			covered += s.dur()
		}
	}
	return share(float64(covered), float64(root))
}

// probe is an outside-in layer probe: it calls f(0..n-1), each call in a
// span named name under a "probe" root, and returns the mean ns per call.
func (t *tracer) probe(name string, n int, f func(i int)) float64 {
	root := t.begin("probe", -1)
	var ns int64
	for i := 0; i < n; i++ {
		sp := t.begin(name, i)
		f(i)
		t.end(sp)
		ns += t.spans[sp].dur()
	}
	t.end(root)
	return share(float64(ns), float64(n))
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf prints the per-layer self-time table of the traced passes.
func (t *tracer) printSelf() {
	self := t.selfNS()
	names := make([]string, 0, len(self))
	var total int64
	for n, ns := range self {
		names = append(names, n)
		total += ns
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("# span self time in the traced passes (%d spans in all, probes included):\n", len(t.spans))
	for _, n := range names {
		_, count := t.totalNS(n)
		fmt.Printf("#   %-22s %9.3f s  %5.1f%%  n=%d\n", n, float64(self[n])/1e9, 100*share(float64(self[n]), float64(total)), count)
	}
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
