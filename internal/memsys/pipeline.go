package memsys

import (
	"math/bits"

	"heteromem/internal/clock"
)

// Verdict is a stage's decision about what happens to the request next.
type Verdict uint8

const (
	// Next passes the request to the following stage.
	Next Verdict = iota
	// Done completes the request at its current Now; later stages are
	// skipped.
	Done
)

// Stage is one step of the request path. Process advances r.Now by
// whatever latency the stage charges, updates the stage's own state
// (cache contents, MSHR entries, statistics) and decides whether the
// request continues.
type Stage interface {
	// ID names the stage's slot in r.Stamp.
	ID() StageID
	// Process applies the stage to the request.
	Process(r *Request) Verdict
}

// Interconnect carries request-path messages between stops. noc.Ring
// satisfies it; a mesh (or any other topology) can be swapped in by
// implementing the same contract.
type Interconnect interface {
	// Send moves bytes from stop `from` to stop `to` starting at now and
	// returns the arrival time.
	Send(from, to, bytes int, now clock.Time) clock.Time
}

// Topology maps PUs, L3 tiles and the memory controller onto
// interconnect stops and fixes the message geometry (line and request
// message sizes). It is a value type: stages copy it at construction.
type Topology struct {
	// PUStop is each PU's interconnect stop.
	PUStop [NumPUs]int
	// L3Base is the stop of L3 tile 0; tile t sits at L3Base+t.
	L3Base int
	// MCStop is the memory-controller stop.
	MCStop int
	// Tiles is the number of L3 tiles; lines interleave across them.
	Tiles int
	// LineBytes is the cache-line size, which is also the data-message
	// payload.
	LineBytes int
	// ReqBytes is the size of a request/control message.
	ReqBytes int

	// Derived strength-reduction state (Derive). Zero values mean "not
	// derived" and every method falls back to plain division, so a
	// Topology built as a bare literal stays correct — just slower on
	// the TileFor hot path.
	lineShift uint8  // log2(LineBytes) when LineBytes is a power of two
	tileMask  uint64 // Tiles-1 when Tiles is a power of two
}

// Derive returns t with its strength-reduction fields populated:
// TileFor on the returned value replaces the divide/modulo pair with a
// shift and mask when the geometry allows (power-of-two line size and
// tile count — true for every configuration this package ships).
// Stages copy the Topology at construction, so derive before wiring.
func (t Topology) Derive() Topology {
	if t.LineBytes > 0 && t.LineBytes&(t.LineBytes-1) == 0 {
		t.lineShift = uint8(bits.TrailingZeros(uint(t.LineBytes)))
	}
	if t.Tiles > 0 && t.Tiles&(t.Tiles-1) == 0 {
		t.tileMask = uint64(t.Tiles - 1)
	}
	return t
}

// TileFor returns the L3 tile serving addr (line-interleaved).
func (t Topology) TileFor(addr uint64) int {
	if t.lineShift != 0 {
		line := addr >> t.lineShift
		if t.tileMask != 0 {
			return int(line & t.tileMask)
		}
		return int(line % uint64(t.Tiles))
	}
	return int(addr/uint64(t.LineBytes)) % t.Tiles
}

// TileStop returns the interconnect stop of L3 tile `tile`.
func (t Topology) TileStop(tile int) int { return t.L3Base + tile }

// Line returns addr rounded down to its cache-line base.
func (t Topology) Line(addr uint64) uint64 {
	return addr &^ uint64(t.LineBytes-1)
}
