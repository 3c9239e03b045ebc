// Package bitset provides a compact fixed-capacity bit set used for
// reachability computations over computation dags.
//
// The zero value of Set is an empty set with capacity zero; use New to
// create a set that can hold indices in [0, n).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity set of small non-negative integers.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set capable of holding elements in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSlab returns count empty sets, each capable of holding elements in
// [0, n), over one shared backing array: two allocations however many
// sets. Each set owns its own disjoint run of words.
func NewSlab(count, n int) []Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{n: n, words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return sets
}

// ResetSlab returns count empty sets of capacity n, as NewSlab does,
// over the storage of sets, a slab NewSlab or ResetSlab returned, when
// it has room for them, and over a new slab otherwise.
func ResetSlab(sets []Set, count, n int) []Set {
	all := sets[:cap(sets)]
	if len(all) < count || len(all) > 0 && cap(all[0].words) < (n+wordBits-1)/wordBits {
		return NewSlab(count, n)
	}
	sets = all[:count]
	for i := range sets {
		sets[i].Reset(n)
	}
	return sets
}

// Reset empties the set and sets its capacity to n, reusing the backing
// array when it is large enough. Word slices obtained before the call
// no longer track the set.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		clear(s.words)
	}
	s.n = n
}

// Cap returns the capacity of the set (elements may be in [0, Cap())).
func (s *Set) Cap() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

func (s *Set) sameCap(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t *Set) {
	s.sameCap(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	s.sameCap(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range t.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Words exposes the backing word slice (least-significant word first,
// bit i of word w representing element w*64+i). The slice is shared
// with the set and must be treated as read-only; it is stable until the
// next Reset. It exists for performance-critical callers
// (state-key encoding in internal/search) that would otherwise copy the
// set bit by bit.
func (s *Set) Words() []uint64 { return s.words }

// ForEach calls fn for each element in increasing order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elements returns the elements of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{0, 3, 17}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
