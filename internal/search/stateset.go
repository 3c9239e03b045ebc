package search

import "repro/internal/dag"

// This file implements the failed-state memo table: an open-addressing
// (linear probing) hash set over fixed-width keys of raw uint64 words.
// Keys never leave the table's flat backing array, so memoizing a
// state costs zero allocations in steady state — the legacy searchers
// built a fresh string per visited state.
//
// Key codec. A search state is the pair (placed set, last-writer
// vector). The key packs the placed set's bitset words first, then the
// last-writer vector with each entry widened to 32 bits (two entries
// per word, ⊥ = dag.None = -1 encoding as 0xFFFFFFFF). Both sections
// have fixed width, every entry is recoverable, and node ids are
// stored whole, so the codec is injective for any node count — unlike
// the legacy checker key, which truncated node ids to their low 16
// bits and could alias distinct states at ≥ 65536 nodes (and relied on
// byte-wise packing that shifted with parity at ≥ 256).

// encodeKey packs (placed, last) into buf, which must have keyWords
// space: placedWords words of placed-set bits, then ⌈numSlots/2⌉ words
// of 32-bit last-writer entries.
func encodeKey(buf []uint64, placedWords []uint64, last []dag.Node) []uint64 {
	n := copy(buf, placedWords)
	j := n
	for i := 0; i < len(last); i += 2 {
		w := uint64(uint32(last[i]))
		if i+1 < len(last) {
			w |= uint64(uint32(last[i+1])) << 32
		}
		buf[j] = w
		j++
	}
	return buf[:j]
}

// decodeKey is the codec inverse, used by the injectivity tests: it
// splits a key back into placed-set words and the last-writer vector.
func decodeKey(key []uint64, placedWords, numSlots int) ([]uint64, []dag.Node) {
	placed := append([]uint64(nil), key[:placedWords]...)
	last := make([]dag.Node, numSlots)
	for i := range last {
		w := key[placedWords+i/2]
		if i%2 == 1 {
			w >>= 32
		}
		last[i] = dag.Node(int32(uint32(w)))
	}
	return placed, last
}

// hashKey mixes the key words with a splitmix64-style finalizer per
// word. The table masks the result, so low-bit quality matters.
func hashKey(key []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range key {
		h ^= w
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		h *= 0xC4CEB9FE1A85EC53
	}
	return h ^ h>>29
}

// stateSet is the open-addressing set. Slot i occupies
// keys[i*kw : (i+1)*kw]; occ marks live slots (a key may legitimately
// be all zeros — the root state — so no in-band sentinel exists).
//
// A byte cap (maxBytes, 0 = unlimited) bounds the backing arrays. When
// growing past the cap the table freezes instead: lookups keep working
// on everything already stored, new inserts are dropped and counted as
// spills. Memoization only skips work the search would redo, so a
// frozen table degrades exactly — the answer never changes, only the
// state count.
//
// A set can be reset and reused: reset keeps the backing arrays when
// they are large enough, and only growth past them allocates.
type stateSet struct {
	kw       int
	keys     []uint64
	occ      []bool
	size     int
	grow     int // resize threshold (¾ load)
	maxBytes int64
	frozen   bool
	spilled  int64 // inserts dropped after freezing
}

const stateSetInitSlots = 1 << 6

// newStateSet returns an empty, uncapped set of kw-word keys.
func newStateSet(kw int) *stateSet {
	s := &stateSet{}
	s.reset(kw, 0)
	return s
}

// reset empties the set for kw-word keys under a cap of maxBytes bytes
// on its backing arrays (0 = unlimited), keeping the arrays. It starts
// at the size every new set starts at: stateSetInitSlots slots, halved
// until they fit under a tight cap.
func (s *stateSet) reset(kw int, maxBytes int64) {
	if kw <= 0 {
		kw = 1
	}
	s.kw, s.maxBytes = kw, maxBytes
	s.size, s.frozen, s.spilled = 0, false, 0
	slots := stateSetInitSlots
	if maxBytes > 0 {
		for slots > 1 && s.bytesFor(slots) > maxBytes {
			slots /= 2
		}
	}
	s.alloc(slots)
}

// alloc gives the set `slots` empty slots over its current arrays when
// they are large enough.
func (s *stateSet) alloc(slots int) {
	s.keys = reuse(s.keys, slots*s.kw)
	s.occ = reuse(s.occ, slots)
	s.grow = slots / 4 * 3
}

// bytesFor is the backing-array footprint of a table with `slots` slots.
func (s *stateSet) bytesFor(slots int) int64 {
	return int64(slots) * (int64(s.kw)*8 + 1)
}

// bytes is the current backing-array footprint.
func (s *stateSet) bytes() int64 { return s.bytesFor(len(s.occ)) }

func (s *stateSet) len() int { return s.size }

func equalKey(a, b []uint64) bool {
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// contains reports whether key is in the set.
func (s *stateSet) contains(key []uint64) bool {
	mask := len(s.occ) - 1
	i := int(hashKey(key)) & mask
	for s.occ[i] {
		if equalKey(key, s.keys[i*s.kw:(i+1)*s.kw]) {
			return true
		}
		i = (i + 1) & mask
	}
	return false
}

// insert adds key (copying it into the backing array) and reports
// whether it was newly added. Once the byte cap forbids growth the
// table freezes and further inserts are dropped (counted in spilled).
func (s *stateSet) insert(key []uint64) bool {
	if s.frozen {
		s.spilled++
		return false
	}
	if s.size >= s.grow {
		if s.maxBytes > 0 && s.bytesFor(len(s.occ)*2) > s.maxBytes {
			s.frozen = true
			s.spilled++
			return false
		}
		s.rehash()
	}
	mask := len(s.occ) - 1
	i := int(hashKey(key)) & mask
	for s.occ[i] {
		if equalKey(key, s.keys[i*s.kw:(i+1)*s.kw]) {
			return false
		}
		i = (i + 1) & mask
	}
	s.occ[i] = true
	copy(s.keys[i*s.kw:(i+1)*s.kw], key)
	s.size++
	return true
}

func (s *stateSet) rehash() {
	oldKeys, oldOcc := s.keys, s.occ
	// The old arrays may be large enough to reuse, but they still hold
	// the keys to move.
	s.keys, s.occ = nil, nil
	s.alloc(len(oldOcc) * 2)
	mask := len(s.occ) - 1
	for i, live := range oldOcc {
		if !live {
			continue
		}
		key := oldKeys[i*s.kw : (i+1)*s.kw]
		j := int(hashKey(key)) & mask
		for s.occ[j] {
			j = (j + 1) & mask
		}
		s.occ[j] = true
		copy(s.keys[j*s.kw:(j+1)*s.kw], key)
	}
	// size is unchanged: every live key is reinserted exactly once.
}
