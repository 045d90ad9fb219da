// Package frontier provides the dirty-node set behind frontier-sparse
// execution: a bitset over the node IDs of a graph tracking which nodes are
// *unsettled* — nodes whose next activation might do something, because
// their state or a neighbor's state changed since they were last certified
// as a deterministic self-loop.
//
// The set is one word array with one count. Enumeration (AppendTo) yields
// members in ascending node order, which is exactly the canonical activation
// order the simulation engines' observer contract is anchored on.
package frontier

import "math/bits"

// Set is a dirty-node set over [0, n). The zero value is not usable; build
// one with New. A Set is not safe for concurrent use.
type Set struct {
	n     int
	words []uint64 // bit v ↔ node v
	count int
}

// New returns an empty set over [0, n).
func New(n int) *Set {
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// N returns the size of the node domain.
func (s *Set) N() int { return s.n }

// Add inserts node v (a no-op if already present).
func (s *Set) Add(v int) {
	w, b := v>>6, uint64(1)<<uint(v&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.count++
	}
}

// Remove deletes node v (a no-op if absent).
func (s *Set) Remove(v int) {
	w, b := v>>6, uint64(1)<<uint(v&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.count--
	}
}

// Contains reports whether node v is in the set.
func (s *Set) Contains(v int) bool {
	return s.words[v>>6]&(1<<uint(v&63)) != 0
}

// Len returns the cardinality in O(1).
func (s *Set) Len() int { return s.count }

// Fill inserts every node of the domain.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := s.n & 63; tail != 0 {
		s.words[len(s.words)-1] = (uint64(1) << uint(tail)) - 1
	}
	s.count = s.n
}

// AppendTo appends all members to buf in ascending node order and returns
// the extended slice. The scan costs O(n/64 + |members|) regardless of
// occupancy, which is negligible next to even one skipped signal
// computation per word.
func (s *Set) AppendTo(buf []int) []int {
	if s.count == 0 {
		return buf
	}
	for wi, w := range s.words {
		for w != 0 {
			buf = append(buf, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return buf
}
