package memmodel

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// This file is the pattern sweep's path through one computation and
// the labellings that share its writers: Decider.Sweep gives what
// Masked gives for every observer of c, in Enumerate's order, under
// each such labelling, but decides SC, LC and the four Q-dag bits once
// per computation instead of once per pair, every bit but TSO once per
// observer instead of once per labelling, and TSO's search once per
// observer and effective fence set.
//
// SC and LC come from c's topological sorts. By Definitions 17 and 18,
//
//	SC = { (C, W_T) : T ∈ TS(C) }
//	LC = { (C, Φ) : ∀l ∃T ∈ TS(C)  Φ(l,·) = W_T(l,·) }
//
// so the walk visits each sort T once, marks the rank of W_T in an SC
// bitset, and marks each location's sub-rank in that location's LC
// bitset. The ranks use observer.Rank's digits: a node that writes l
// has radix 1 at slot (l, u); at any other slot ⊥ is digit 0 and the
// writers of l that u does not precede follow in id order. Placing u
// in a sort gives Φ(l,u) = the last writer of l placed before it, or
// ⊥, and u never precedes that writer, so the digit is always one of
// the slot's. Slots are location-major, so a rank is its per-location
// sub-ranks read in order as one mixed-radix number: an observer is in
// SC exactly when its rank is marked, and in LC exactly when each of
// its sub-ranks is.
//
// Two nodes that write nothing commute when they are placed next to
// each other: neither changes a last writer, so both orders give the
// same W_T. The walk therefore places a run of such nodes in
// increasing id order only. When ids are topological that order is a
// sort of the run, so every W_T is still reached.
//
// The Q-dag bits come from one walk over the observers, slot by slot in
// Enumerate's order as qdagwalk.go's member walk goes. It checks each
// triple u ≺ v ≺ w once, at w's slot, with the member walk's
// qdagWalk.violated, which states all four predicates at once;
// qdagwalk.go's argument makes that exact when ids are topological.
// Unlike the member walk it prunes nothing: every observer is a leaf,
// and it carries the union of the predicates its slots violated.
//
// At each leaf SC and LC are read from the bitsets and the Q-dag bits
// from the walk, and RA, CAUSAL and TSO's checks before its search are
// decided once, on the tail Masked shares. Everything but TSO's search
// reads only which nodes write which location — the observers
// themselves, the sorts' last writers, the Q-dag predicates and
// happens-before — so it holds for every labelling of the sweep
// (TestWriterSignatureLicense states the argument per model and checks
// it on the full deciders). TSO's search (outside SC) also reads the
// effective fences, the no-ops that some write precedes, and nothing
// else of the labelling (TestFenceSetLicense), so the members are
// partitioned once by effective fence set and the search runs at each
// leaf for the first member of each class, whose bit the rest share.
// TestSweepMatchesMasked pins every bit of every labelling to Masked.

// maxSweepRanks bounds the observer count of a computation the walk
// takes, so that its bitsets stay at 2 MiB and no rank overflows; a
// computation with more observers is enumerated instead.
const maxSweepRanks = 1 << 24

// sweepWalk is Sweep's state, reused from computation to computation.
type sweepWalk struct {
	qdagWalk // c's shape: closure rows, writers, and the walk's assignments by value

	written uint64     // the nodes that write some location
	stride  []int      // by slot (l, u): the weight of its digit in l's sub-rank
	block   []int      // by location: its sub-rank count
	lcAt    []int      // by location: the first of its bits in lc
	order   []int      // the sort walk's placed nodes
	sc, lc  bitset.Set // SC's marked ranks; LC's marked sub-ranks, by location from lcAt

	d       *Decider
	o       *observer.Observer
	mask    uint16
	members [][]computation.Op
	fn      func(member int, pattern uint16) bool
	stopped bool

	// By member, when mask asks for TSO: its effective fences, the
	// first member with the same ones, and, at a leaf, TSO's search
	// result for the members that are first.
	fences   []uint64
	fenceRep []int
	tsoFound []bool
}

// Sweep points the decider at c and decides each observer o of c, in
// observer.Enumerate's order, under each labelling of members in turn:
// it calls fn(i, p), with p what Masked(o, mask) gives for c relabelled
// by members[i], until fn returns false, and returns the number of
// observers visited. Every member must label c's dag with c's writer
// signature: each node writes the location it writes in c, or nothing
// when it writes nothing there; deciding c alone is the one-member case,
// members {c.Ops()}. SC, LC and the Q-dag bits are decided once for c,
// every bit but TSO once per observer, and TSO once per observer and
// effective fence set (sweepwalk.go); a computation the walk does not
// take, with more than 64 nodes, ids that are not topological or more
// than maxSweepRanks observers, is enumerated and each labelling
// decided by Masked instead.
func (d *Decider) Sweep(c *computation.Computation, members [][]computation.Op, mask uint16, fn func(member int, pattern uint16) bool) int {
	d.Reset(c)
	if d.sweep == nil {
		d.sweep = new(sweepWalk)
	}
	s := d.sweep
	if !s.reset(c) {
		labelled := make([]*computation.Computation, len(members))
		for i, ops := range members {
			labelled[i] = c.Relabel(ops)
		}
		return observer.Enumerate(c, func(o *observer.Observer) bool {
			for i, m := range labelled {
				d.Reset(m)
				if !fn(i, d.Masked(o, mask)) {
					return false
				}
			}
			return true
		})
	}
	if s.o == nil || s.o.NumNodes() != d.n || s.o.NumLocs() != d.numLocs {
		s.o = observer.New(c)
	}
	s.order = s.order[:0]
	s.sorts(0, -1)
	if mask&PatternTSO != 0 {
		s.fenceClasses(members)
	}
	s.d, s.mask, s.members, s.fn, s.stopped = d, mask, members, fn, false
	visited := s.visit(0, 0, 0, true)
	s.d, s.members, s.fn = nil, nil, nil
	return visited
}

// reset loads c and sizes the bitsets, reporting whether the walk
// takes c.
func (s *sweepWalk) reset(c *computation.Computation) bool {
	if !s.qdagWalk.reset(c, nil) {
		return false
	}
	n, numLocs := s.n, c.NumLocs()
	s.stride, s.block, s.lcAt = grow(s.stride, s.slots), grow(s.block, numLocs), grow(s.lcAt, numLocs)
	count, lcBits := 1, 0
	s.written = 0
	for l := 0; l < numLocs; l++ {
		s.written |= s.writers[l]
		block := 1
		for u := n - 1; u >= 0; u-- {
			s.stride[l*n+u] = block
			if s.writers[l]>>u&1 == 0 {
				block *= 1 + bits.OnesCount64(s.writers[l]&^s.desc[u])
			}
			if block > maxSweepRanks {
				return false
			}
		}
		s.block[l], s.lcAt[l] = block, lcBits
		lcBits += block
		if count *= block; count > maxSweepRanks {
			return false
		}
	}
	s.sc.Reset(count)
	s.lc.Reset(lcBits)
	return true
}

// fenceClasses partitions members by effective fence set, the no-ops
// that some write of c precedes: tsoCore.events builds one Spec for
// labellings with the same writers and the same effective fences
// (TestFenceSetLicense), so each class shares its first member's TSO
// search.
func (s *sweepWalk) fenceClasses(members [][]computation.Op) {
	s.fences, s.fenceRep = grow(s.fences, len(members)), grow(s.fenceRep, len(members))
	s.tsoFound = grow(s.tsoFound, len(members))
	for i, ops := range members {
		var fences uint64
		for u, op := range ops {
			if op.Kind == computation.Noop && s.anc[u]&s.written != 0 {
				fences |= 1 << u
			}
		}
		s.fences[i], s.fenceRep[i] = fences, i
		for j := 0; j < i; j++ {
			if s.fences[j] == fences { // the first member with them
				s.fenceRep[i] = j
				break
			}
		}
	}
}

// sorts extends the placed prefix of a sort in every way, and marks the
// ranks of each complete sort's W_T. prev is the last node placed when
// it writes nothing, and -1 otherwise.
func (s *sweepWalk) sorts(placed uint64, prev int) {
	if len(s.order) == s.n {
		s.mark()
		return
	}
	for ready := ^placed & (1<<s.n - 1); ready != 0; ready &= ready - 1 {
		u := bits.TrailingZeros64(ready)
		writes := s.written>>u&1 != 0
		if s.anc[u]&^placed != 0 || (!writes && u < prev) {
			continue // not ready, or a run of non-writers out of id order
		}
		next := -1
		if !writes {
			next = u
		}
		s.order = append(s.order, u)
		s.sorts(placed|1<<u, next)
		s.order = s.order[:len(s.order)-1]
	}
}

// mark marks the rank of W_T, for T the complete sort in order, in sc,
// and each of its sub-ranks in lc.
func (s *sweepWalk) mark() {
	rank := 0
	for l := range s.block {
		last, sub := s.n, 0 // ⊥, until a writer of l is placed
		for _, u := range s.order {
			switch {
			case s.writers[l]>>u&1 != 0:
				last = u
			case last != s.n:
				sub += (1 + bits.OnesCount64(s.writers[l]&^s.desc[u]&(1<<last-1))) * s.stride[l*s.n+u]
			}
		}
		s.lc.Add(s.lcAt[l] + sub)
		rank = rank*s.block[l] + sub
	}
	s.sc.Add(rank)
}

// visit assigns slot and every later one below the rank prefix of the
// slots already assigned, and returns the number of leaves it visited.
// viol holds the Q-dag bits those slots violate, and lc whether every
// location they complete has a marked sub-rank.
func (s *sweepWalk) visit(slot, rank int, viol uint16, lc bool) int {
	if slot == s.slots {
		pattern := patternQDag &^ viol
		if lc {
			pattern |= PatternLC
			if s.sc.Contains(rank) {
				pattern |= PatternSC
			}
		}
		s.d.observe(s.o)
		pattern, search := s.d.tail(pattern, s.mask)
		for i, ops := range s.members {
			p := pattern
			if search {
				if s.fenceRep[i] == i {
					s.tsoFound[i] = s.d.tsoIn(ops)
				}
				if s.tsoFound[s.fenceRep[i]] {
					p |= PatternTSO
				}
			}
			if !s.fn(i, p) {
				s.stopped = true
				break
			}
		}
		return 1
	}
	l, w := slot/s.n, slot%s.n
	if s.writers[l]>>w&1 != 0 { // Φ(l,w) = w: radix 1, and no violating triple ends here
		return s.assign(slot, l, w, w, rank, viol, lc)
	}
	later := s.writers[l] &^ s.desc[w] // the writers after ⊥, in id order
	radix := 1 + bits.OnesCount64(later)
	visited := 0
	x := s.n // ⊥
	for digit := 0; digit < radix && !s.stopped; digit++ {
		if digit > 0 {
			x = bits.TrailingZeros64(later)
			later &= later - 1
		}
		v := viol
		if s.mask&patternQDag&^v != 0 {
			v |= s.violated(l, w, x)
		}
		visited += s.assign(slot, l, w, x, rank*radix+digit, v, lc)
	}
	return visited
}

// assign sets Φ(l,w) = x (x = n for ⊥) at slot (l, w), which makes the
// rank prefix r, and visits the slots after it.
func (s *sweepWalk) assign(slot, l, w, x, r int, viol uint16, lc bool) int {
	if w == s.n-1 { // l's sub-rank is complete
		lc = lc && s.lc.Contains(s.lcAt[l]+r%s.block[l])
	}
	val := dag.Node(x)
	if x == s.n {
		val = observer.Bottom
	}
	s.o.Set(computation.Loc(l), dag.Node(w), val)
	obs := &s.obsOf[l*(s.n+1)+x]
	*obs |= 1 << w
	visited := s.visit(slot+1, r, viol, lc)
	*obs &^= 1 << w
	return visited
}
