package memmodel

import (
	"math/bits"

	"repro/internal/computation"
	"repro/internal/dag"
)

// This file is the Δ* fixpoint's member walk for the four Q-dag models,
// NN, NW, WN and WW. The fixpoint needs the ranks of a computation's
// members, and Condition 20.1 is a conjunction over triples u ≺ v ≺ w,
// so a partial observer can already violate it. Instead of deciding
// every observer that observer.Enumerate visits, the walk assigns Φ
// slot by slot in Enumerate's order — location-major, node ids
// ascending, ⊥ first and then the writers of l in id order — checks
// each triple once, at w's slot, and skips every subtree under a
// violated prefix.
//
// Checking at w is exact when the node ids are topological (u ≺ v
// implies u < v), as they are in every enumerated computation and its
// augmentations (dag.DagOnNodes adds only edges u < v, and Augment
// appends a sink):
//
//   - In every triple u ≺ v ≺ w, w is the last of the three assigned.
//     The condition is per location and Φ(l,⊥) = ⊥, so when slot
//     (l, w) is assigned, every value a triple ending at w reads is
//     known.
//   - A leaf the walk reaches passed the check at each of its slots, so
//     it violates no triple: it is a member.
//   - A pruned prefix holds a violating triple, and so does every
//     completion of it: none of them is a member.
//
// For the slot (l, w) with value x, a triple ending at w violates
// Condition 20.1 exactly when some v ≺ w has Φ(l,v) ≠ x, together with
// a u that makes the triple violate:
//
//   - NN: x = ⊥ (take u = ⊥), or some u ≺ v has Φ(l,u) = x.
//   - NW: as NN, but only for a v that writes l.
//   - WN: u = x, where x is a writer that precedes v. A writer of l
//     observes itself (2.3) and ⊥ is no writer, so x is the only u
//     that writes l and has Φ(l,u) = x.
//   - WW: as WN, but only for a v that writes l.
//
// A writer's own slot ends no violating triple: its value is itself,
// which no u ≺ w may observe (2.2), and ⊥ ≠ w. Each leaf's rank is its
// candidate indices read as Enumerate's mixed-radix number, and the walk
// visits candidates in Enumerate's order, so it reports exactly the
// ranks that Enumerate filtered by ExplainQDag gives, in increasing
// order. TestQDagWalkMatchesExplain pins that.

// qdagWalk visits the members of one Q-dag model among the observers
// of a computation, on buffers reused from computation to computation.
// The pattern sweep (sweepwalk.go) embeds it for its closure rows,
// writers, assignments and violated, and leaves bit zero.
type qdagWalk struct {
	bit uint16 // the member walk's model: NN, NW, WN or WW's pattern bit

	n, slots  int      // nodes, and nodes × locations
	anc, desc []uint64 // by node: its strict ancestors and descendants, one bit per node
	writers   []uint64 // by location: its writers
	obsOf     []uint64 // by location, then value (a node, or n for ⊥): the assigned nodes observing it
	ranks     []int    // the members found so far
}

// newQDagWalk returns the walk of the Q-dag model whose pattern bit is
// bit.
func newQDagWalk(bit uint16) *qdagWalk {
	return &qdagWalk{bit: bit}
}

// reset loads c, followed by a final node labelled *sink when sink is
// not nil: aug_sink(C) of Definition 11, without building it. It
// reports whether the walk applies: at most 64 nodes, numbered
// topologically.
func (q *qdagWalk) reset(c *computation.Computation, sink *computation.Op) bool {
	n, numLocs := c.NumNodes(), c.NumLocs()
	size := n
	if sink != nil {
		size++
	}
	if size > 64 {
		return false
	}
	cl := c.Closure()
	q.anc, q.desc = grow(q.anc, size), grow(q.desc, size)
	for u := 0; u < n; u++ {
		q.anc[u] = cl.Ancestors(dag.Node(u)).Words()[0]
		q.desc[u] = cl.Descendants(dag.Node(u)).Words()[0]
		if q.anc[u]>>u != 0 {
			return false // an ancestor with a larger id
		}
	}
	q.writers = grow(q.writers, numLocs)
	clear(q.writers)
	for u, op := range c.Ops() {
		if op.Kind == computation.Write {
			q.writers[op.Loc] |= 1 << u
		}
	}
	if sink != nil { // every node precedes the sink
		q.anc[n], q.desc[n] = 1<<n-1, 0
		for u := 0; u < n; u++ {
			q.desc[u] |= 1 << n
		}
		if sink.Kind == computation.Write {
			q.writers[sink.Loc] |= 1 << n
		}
		n++
	}
	q.obsOf = grow(q.obsOf, numLocs*(n+1))
	clear(q.obsOf)
	q.n, q.slots = n, n*numLocs
	return true
}

// each appends the rank of every member of the loaded computation to
// ranks, in increasing order, and returns its observer count and the
// extended ranks.
func (q *qdagWalk) each(ranks []int) (int, []int) {
	count := 1
	for s := 0; s < q.slots; s++ {
		l, w := s/q.n, s%q.n
		if q.writers[l]>>w&1 == 0 {
			count *= 1 + bits.OnesCount64(q.writers[l]&^q.desc[w])
		}
	}
	q.ranks = ranks
	q.walk(0, 0)
	ranks, q.ranks = q.ranks, nil
	return count, ranks
}

// walk assigns slot and every later one, below the rank prefix of the
// slots already assigned.
func (q *qdagWalk) walk(slot, rank int) {
	if slot == q.slots {
		q.ranks = append(q.ranks, rank)
		return
	}
	l, w := slot/q.n, slot%q.n
	obs := q.obsOf[l*(q.n+1) : (l+1)*(q.n+1)]
	bit := uint64(1) << w
	if q.writers[l]&bit != 0 { // Φ(l,w) = w: radix 1, and no violation ends here
		obs[w] |= bit
		q.walk(slot+1, rank)
		obs[w] &^= bit
		return
	}
	later := q.writers[l] &^ q.desc[w] // the writers after ⊥, in id order
	radix := 1 + bits.OnesCount64(later)
	x := q.n // ⊥
	for digit := 0; digit < radix; digit++ {
		if digit > 0 {
			x = bits.TrailingZeros64(later)
			later &= later - 1
		}
		if q.violated(l, w, x)&q.bit == 0 {
			obs[x] |= bit
			q.walk(slot+1, rank*radix+digit)
			obs[x] &^= bit
		}
	}
}

// violated returns the Q-dag bits whose predicate some triple
// u ≺ v ≺ w violates when Φ(l,w) = x (x = n for ⊥), for a w that does
// not write l: the cases above, for the four predicates at once.
func (q *qdagWalk) violated(l, w, x int) uint16 {
	obs := q.obsOf[l*(q.n+1) : (l+1)*(q.n+1)] // l's assignments so far, by value
	vs := q.anc[w] &^ obs[x]                  // the v ≺ w with Φ(l,v) ≠ x
	if vs == 0 {
		return 0
	}
	vw := vs & q.writers[l] // those that write l
	if x == q.n {           // u = ⊥
		if vw != 0 {
			return PatternNN | PatternNW
		}
		return PatternNN
	}
	var viol uint16
	if q.desc[x]&vs != 0 { // u = x, the one writer of l with Φ(l,u) = x
		viol |= PatternNN | PatternWN
	}
	if q.desc[x]&vw != 0 {
		viol |= PatternNW | PatternWW
	}
	if viol&(PatternNN|PatternNW) != PatternNN|PatternNW {
		var after uint64 // what follows some u with Φ(l,u) = x
		for us := obs[x]; us != 0; us &= us - 1 {
			after |= q.desc[bits.TrailingZeros64(us)]
		}
		if after&vs != 0 {
			viol |= PatternNN
		}
		if after&vw != 0 {
			viol |= PatternNW
		}
	}
	return viol
}
