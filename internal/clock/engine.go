package clock

import "fmt"

// Event is a callback scheduled to run at a specific simulated time. The
// engine passes the event's own timestamp to the callback so handlers do
// not need to capture it.
type Event func(now Time)

// bucket holds every event scheduled for one timestamp, in FIFO order.
// Batching same-timestamp events into one heap node keeps the heap small
// (one entry per distinct time, not per event) and makes scheduling onto
// an already-populated timestamp a plain slice append — no heap sift, no
// per-event boxing.
type bucket struct {
	at   Time
	fns  []Event
	next int // index of the next fn to run
}

// Engine is a deterministic discrete-event simulation engine. Events
// scheduled for the same timestamp run in the order they were scheduled,
// so a simulation is fully reproducible from its inputs.
//
// The queue is a typed slice-backed binary min-heap of per-timestamp
// buckets: no container/heap, no interface{} boxing, and drained buckets
// are pooled for reuse, so steady-state scheduling allocates nothing.
//
// Engine is not safe for concurrent use; the simulator is single-threaded
// by design (determinism is a core requirement for a design-space study,
// where runs are compared against each other).
type Engine struct {
	now       Time
	heap      []*bucket // min-heap on at; one bucket per distinct timestamp
	byTime    map[Time]*bucket
	free      []*bucket // drained buckets awaiting reuse
	pending   int
	processed uint64
}

// NewEngine returns an engine positioned at time zero with no pending
// events.
func NewEngine() *Engine {
	return &Engine{byTime: make(map[Time]*bucket)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events not yet executed.
func (e *Engine) Pending() int { return e.pending }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// it would silently reorder causality and corrupt the run.
func (e *Engine) Schedule(at Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("clock: schedule at %v before now %v", at, e.now))
	}
	// A nil map read is fine, so the zero-value init lives on the cold
	// bucket-allocation branch, not in front of every event.
	b := e.byTime[at]
	if b == nil {
		if e.byTime == nil {
			e.byTime = make(map[Time]*bucket)
		}
		if n := len(e.free); n > 0 {
			b = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
		} else {
			b = &bucket{}
		}
		b.at = at
		e.byTime[at] = b
		e.push(b)
	}
	b.fns = append(b.fns, fn)
	e.pending++
}

// ScheduleAfter runs fn after duration d from the current time.
func (e *Engine) ScheduleAfter(d Duration, fn Event) {
	e.Schedule(e.now.Add(d), fn)
}

// Step executes the single earliest pending event and advances time to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	b := e.heap[0]
	e.now = b.at
	fn := b.fns[b.next]
	b.next++
	e.pending--
	e.processed++
	fn(e.now)
	// The handler may have scheduled more work at this same timestamp
	// (appended to b), so the drained check comes after it runs.
	if b.next >= len(b.fns) {
		e.pop()
		delete(e.byTime, b.at)
		e.recycle(b)
	}
	return true
}

// Run executes events until the queue is empty and returns the final
// simulated time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps at or before deadline, then
// advances time to the deadline (even if no event landed exactly on it).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Reset clears the queue and processed-event count and rewinds the engine
// to time zero, matching Resource.Reset and the simulator lifecycle: a
// reset engine behaves identically to a freshly constructed one. Bucket
// storage is retained for reuse.
func (e *Engine) Reset() {
	for _, b := range e.heap {
		e.recycle(b)
	}
	clear(e.heap)
	e.heap = e.heap[:0]
	clear(e.byTime)
	e.now = 0
	e.pending = 0
	e.processed = 0
}

// maxFreeBuckets bounds the drained-bucket pool. Steady-state simulation
// touches only a handful of distinct timestamps at once, so a small pool
// already gives a 100% recycle hit rate; without the cap, one workload
// spike that fans out over many distinct timestamps (or a Reset of a
// deep queue) would pin that high-water mark of buckets — and their fns
// backing arrays — for the engine's whole remaining lifetime.
const maxFreeBuckets = 64

// recycle returns a bucket to the pool, dropping its event references so
// completed closures can be collected. Beyond maxFreeBuckets the bucket
// is released to the garbage collector instead.
func (e *Engine) recycle(b *bucket) {
	if len(e.free) >= maxFreeBuckets {
		return
	}
	clear(b.fns)
	b.fns = b.fns[:0]
	b.next = 0
	e.free = append(e.free, b)
}

// push adds a bucket to the heap (sift up).
func (e *Engine) push(b *bucket) {
	e.heap = append(e.heap, b)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.heap[parent].at <= e.heap[i].at {
			break
		}
		e.heap[parent], e.heap[i] = e.heap[i], e.heap[parent]
		i = parent
	}
}

// pop removes the minimum bucket from the heap (sift down).
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && e.heap[l].at < e.heap[smallest].at {
			smallest = l
		}
		if r < n && e.heap[r].at < e.heap[smallest].at {
			smallest = r
		}
		if smallest == i {
			return
		}
		e.heap[i], e.heap[smallest] = e.heap[smallest], e.heap[i]
		i = smallest
	}
}
