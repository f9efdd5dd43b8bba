package cache

import "fmt"

// Scratchpad models a software-managed cache (the GPU's 16 KB
// software-managed cache in Table II). Unlike a hardware cache it has no
// tags or replacement: software explicitly places and removes ranges, a
// lookup either finds the data (fixed latency) or it is a program error
// that the core model charges as a miss to the hierarchy.
type Scratchpad struct {
	name     string
	capacity uint64
	used     uint64
	ranges   map[uint64]uint64 // base -> size
	hits     uint64
	misses   uint64
}

// NewScratchpad returns an empty scratchpad with the given capacity in
// bytes.
func NewScratchpad(name string, capacity uint64) *Scratchpad {
	return &Scratchpad{name: name, capacity: capacity, ranges: make(map[uint64]uint64)}
}

// Used returns the bytes currently allocated.
func (s *Scratchpad) Used() uint64 { return s.used }

// Place allocates [base, base+size) in the scratchpad. It fails when the
// range would exceed capacity; software (the trace generator) is
// responsible for eviction, mirroring real software-managed caches.
func (s *Scratchpad) Place(base, size uint64) error {
	if old, ok := s.ranges[base]; ok {
		if old >= size {
			return nil // already resident
		}
		s.used -= old
		delete(s.ranges, base)
	}
	if s.used+size > s.capacity {
		return fmt.Errorf("scratchpad %s: placing %d bytes exceeds capacity (%d/%d used)",
			s.name, size, s.used, s.capacity)
	}
	s.ranges[base] = size
	s.used += size
	return nil
}

// Remove frees the range previously placed at base, reporting whether it
// was resident.
func (s *Scratchpad) Remove(base uint64) bool {
	size, ok := s.ranges[base]
	if !ok {
		return false
	}
	s.used -= size
	delete(s.ranges, base)
	return true
}

// Resident reports whether addr falls inside any placed range, and
// records a hit or miss.
func (s *Scratchpad) Resident(addr uint64) bool {
	for base, size := range s.ranges {
		if addr >= base && addr < base+size {
			s.hits++
			return true
		}
	}
	s.misses++
	return false
}

// Hits returns the number of resident lookups.
func (s *Scratchpad) Hits() uint64 { return s.hits }

// Misses returns the number of non-resident lookups.
func (s *Scratchpad) Misses() uint64 { return s.misses }

// Clear frees every range.
func (s *Scratchpad) Clear() {
	s.ranges = make(map[uint64]uint64)
	s.used = 0
}

// Reset returns the scratchpad to its just-constructed state: Clear
// plus zeroed hit/miss counters.
func (s *Scratchpad) Reset() {
	s.Clear()
	s.hits = 0
	s.misses = 0
}
