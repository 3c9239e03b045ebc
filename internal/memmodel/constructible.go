package memmodel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/observer"
)

// This file computes the constructible version Δ* (Definition 8) of a
// model over a bounded universe of computations, as the greatest
// fixpoint of single-augmentation extendability:
//
//	prune (C, Φ) whenever some instruction o has no Φ' with
//	(aug_o(C), Φ') surviving and Φ'|_C = Φ.
//
// Theorem 12 justifies using augmentations only: the models of interest
// are monotonic, and for monotonic models extendability to aug_o(C)
// implies extendability to every extension by o.
//
// Boundary effect: pairs at the maximum universe size have no
// augmentation inside the universe and are never pruned, so the
// surviving set S over-approximates Δ*; pruning information flows one
// size level per augmentation, and how far the excess reaches into the
// interior depends on the model and on n. A larger universe does not
// make S exact at a given size: at n = 6, NN survivors still exceed LC
// at size 5 (EXPERIMENTS.md E7). The experiments rely only on the
// sandwich LC ⊆ NN* ⊆ S: whenever S(size ≤ s) = LC(size ≤ s), the
// equality NN* = LC is *proved* for computations of at most s nodes.
//
// Whether (C, Φ) survives depends only on survivors one node larger, so
// the fixpoint needs no iteration: one pass over the interior from the
// largest computations down prunes each computation against
// augmentations that are already final. The boundary's survivors are
// exactly its base pairs, so the boundary is never stored: the
// augmentations the largest interior computations need are decided on
// the fly, and the boundary's pairs are only counted, each
// computation weighted by how many universe members it stands for.
//
// Representation: a pair is an interior position and an observer rank,
// the index at which observer.Enumerate visits the observer. Each
// interior computation's survivors are a bitset over its ranks, and
// restriction from an augmentation to its prefix is arithmetic on ranks
// (augLink).

// PairSet is a finite memory model represented extensionally: for each
// interior computation of a universe (fewer than MaxNodes nodes), the
// set of surviving observer functions, and at MaxNodes nodes, where
// nothing is pruned, the base model. It implements Model; Contains
// returns false for computations outside the universe, so use it only
// on universe members.
type PairSet struct {
	name  string
	model Model // the base model
	maxN  int
	index map[string]int32 // interior computation key → interior position (the last, if listed twice)
	alive []*bitset.Set    // alive[i]: the surviving observer ranks of interior[i]
	// base and star count the base model's pairs and the survivors by
	// computation size, each distinct computation once.
	base, star []int
}

// Name returns the set's name, e.g. "NN*".
func (s *PairSet) Name() string { return s.name }

// MaxNodes returns the universe size bound.
func (s *PairSet) MaxNodes() int { return s.maxN }

// Contains reports membership. At MaxNodes nodes it decides the base
// model; below, c need only be value-equal to an interior computation,
// and computations outside the interior are reported as absent.
func (s *PairSet) Contains(c *computation.Computation, o *observer.Observer) bool {
	if c.NumNodes() == s.maxN {
		return s.model.Contains(c, o)
	}
	var buf [64]byte
	i, ok := s.index[string(appendKey(buf[:0], c))]
	if !ok {
		return false
	}
	r, ok := observer.Rank(c, o)
	return ok && s.alive[i].Contains(r)
}

// ContainsAt reports whether the rank-th observer function that
// observer.Enumerate visits on interior[i] survived, where interior is
// the slice the set was built from (for ConstructibleVersion, the
// universe's computations below MaxNodes, in universe order). It is
// Contains without the lookup, for callers that walk the interior in
// order.
func (s *PairSet) ContainsAt(i, rank int) bool { return s.alive[i].Contains(rank) }

// NumPairs returns the number of surviving pairs, optionally restricted
// to computations with at most maxNodes nodes (pass < 0 for all).
func (s *PairSet) NumPairs(maxNodes int) int {
	total := 0
	for size, n := range s.star {
		if maxNodes < 0 || size <= maxNodes {
			total += n
		}
	}
	return total
}

// SizeCounts returns pair counts indexed by computation size
// 0..MaxNodes(): base counts the pairs of the model the set was built
// from, star the survivors. Each distinct computation counts once.
func (s *PairSet) SizeCounts() (base, star []int) {
	return append([]int(nil), s.base...), append([]int(nil), s.star...)
}

// ConstructibleVersion computes the greatest fixpoint described above
// for model m over the given universe of computations. Its
// computations of the largest size, maxN, form the boundary; those
// below maxN−1 nodes must have their augmentations in the universe
// (internal/enum universes do). ops is the instruction set O to
// quantify over, typically computation.AllOps(numLocs). The returned
// PairSet is named m.Name() + "*".
func ConstructibleVersion(m Model, universe []*computation.Computation, ops []computation.Op) *PairSet {
	maxN := 0
	for _, c := range universe {
		maxN = max(maxN, c.NumNodes())
	}
	var interior []*computation.Computation
	for _, c := range universe {
		if c.NumNodes() < maxN {
			interior = append(interior, c)
		}
	}
	boundary := func(fn func(c *computation.Computation, weight int64) bool) {
		seen := make(map[string]bool) // each distinct computation counts once
		for _, c := range universe {
			key := string(appendKey(nil, c))
			if c.NumNodes() == maxN && !seen[key] {
				seen[key] = true
				if !fn(c, 1) {
					return
				}
			}
		}
	}
	return ConstructibleFixpoint(m, interior, maxN, ops, boundary, nil)
}

// ConstructibleFixpoint computes the greatest fixpoint described above
// for model m over a universe given in two parts. interior holds its
// computations below maxN nodes, closed under augmentation below
// maxN−1 nodes. boundary enumerates its maxN-node computations, each
// with a weight: the number of universe members it stands for (an
// isomorphism class's orbit, for an isomorphism-invariant m). The
// boundary's augmentations are never looked up: the maxN−1-node
// computations are pruned against augmentations decided on the fly,
// and boundary pairs are only counted. rec (nil = off) receives one
// PhaseStart per stage: "interior membership", "fixpoint" and
// "boundary count".
func ConstructibleFixpoint(m Model, interior []*computation.Computation, maxN int, ops []computation.Op,
	boundary func(fn func(c *computation.Computation, weight int64) bool), rec obs.Recorder) *PairSet {
	if maxN < 0 {
		panic(fmt.Sprintf("memmodel: negative universe size %d", maxN))
	}
	s := &PairSet{
		name:  m.Name() + "*",
		model: m,
		maxN:  maxN,
		index: make(map[string]int32, len(interior)),
		alive: make([]*bitset.Set, len(interior)),
		base:  make([]int, maxN+1),
		star:  make([]int, maxN+1),
	}

	// Membership: decide m once per interior pair.
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "interior membership"})
	bySize := make([][]int32, maxN)
	var members []int
	for i, c := range interior {
		size := c.NumNodes()
		if size >= maxN {
			panic(fmt.Sprintf("memmodel: interior computation %s has %d ≥ %d nodes", c, size, maxN))
		}
		s.index[string(appendKey(nil, c))] = int32(i)
		members = members[:0]
		alive := bitset.New(eachMember(m, c, func(r int) { members = append(members, r) }))
		for _, r := range members {
			alive.Add(r)
		}
		s.alive[i] = alive
		bySize[size] = append(bySize[size], int32(i))
	}
	s.countBySize(interior, s.base)

	// A computation listed twice is pruned twice, identically.
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "fixpoint"})
	var key [64]byte
	for size := maxN - 1; size >= 0; size-- {
		for _, i := range bySize[size] {
			c, alive := interior[i], s.alive[i]
			extended := bitset.New(alive.Cap()) // the ranks some augmentation survivor restricts to
			for _, op := range ops {
				aug, _ := c.Augment(op)
				ln := newAugLink(c, aug)
				extended.Clear()
				if size == maxN-1 {
					// A boundary augmentation: its survivors are its base pairs.
					eachMember(m, aug, func(r int) { extended.Add(ln.prefixRank(r)) })
				} else {
					j, ok := s.index[string(appendKey(key[:0], aug))]
					if !ok {
						panic(fmt.Sprintf("memmodel: universe not closed under augmentation: %s missing", aug))
					}
					s.alive[j].ForEach(func(r int) bool {
						extended.Add(ln.prefixRank(r))
						return true
					})
				}
				alive.IntersectWith(extended)
			}
		}
	}
	s.countBySize(interior, s.star)

	// Boundary pairs are never pruned: count them, and keep nothing.
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "boundary count"})
	boundary(func(c *computation.Computation, weight int64) bool {
		pairs := 0
		eachMember(m, c, func(int) { pairs++ })
		s.base[maxN] += pairs * int(weight)
		return true
	})
	s.star[maxN] = s.base[maxN]
	return s
}

// eachMember calls fn with the rank of every observer of c that m
// contains, and returns c's observer count.
func eachMember(m Model, c *computation.Computation, fn func(rank int)) int {
	rank := 0
	return observer.Enumerate(c, func(o *observer.Observer) bool {
		if m.Contains(c, o) {
			fn(rank)
		}
		rank++
		return true
	})
}

// countBySize adds each distinct interior computation's alive pairs to
// counts at its size.
func (s *PairSet) countBySize(interior []*computation.Computation, counts []int) {
	for _, i := range s.index {
		counts[interior[i].NumNodes()] += s.alive[i].Len()
	}
}

// augLink ties an interior computation C to one augmentation aug_o(C).
// The final node of aug_o(C) succeeds every node of C, so it is never a
// candidate value at a node of C: every observer of aug_o(C) restricts
// to an observer of C, and C's nodes keep their candidate sets. In
// Enumerate's mixed radix (location-major, node ids ascending within a
// location) the restriction's rank is the augmentation's rank with the
// final node's digit deleted from each location's block:
//
//	prefixRank(r) = Σ_l (r / augStride[l] mod block[l]) · stride[l]
//
// where block[l] is the number of candidate combinations of C's nodes
// at location l. At one location this is r divided by the final node's
// candidate count. An augLink holds one linkDigit per location.
type augLink []linkDigit

type linkDigit struct{ augStride, block, stride int }

func newAugLink(c, aug *computation.Computation) augLink {
	cc, ac := observer.Candidates(c), observer.Candidates(aug)
	n := c.NumNodes()
	ln := make(augLink, c.NumLocs())
	stride, augStride := 1, 1
	for l := c.NumLocs() - 1; l >= 0; l-- {
		block := 1
		for u := 0; u < n; u++ {
			block *= len(cc[l][u])
		}
		augStride *= len(ac[l][n]) // the final node is its location's last digit
		ln[l] = linkDigit{augStride: augStride, block: block, stride: stride}
		stride *= block
		augStride *= block
	}
	return ln
}

func (ln augLink) prefixRank(r int) int {
	p := 0
	for _, d := range ln {
		p += r / d.augStride % d.block * d.stride
	}
	return p
}

// appendKey appends a compact binary key of c to b: the location and
// node counts, one label per node, then the adjacency matrix at one bit
// per ordered node pair. Value-equal computations get equal keys
// whatever order their edges were added in.
func appendKey(b []byte, c *computation.Computation) []byte {
	n := c.NumNodes()
	b = binary.AppendUvarint(b, uint64(c.NumLocs()))
	b = binary.AppendUvarint(b, uint64(n))
	for _, op := range c.Ops() {
		b = binary.AppendUvarint(b, uint64(op.Loc)<<2|uint64(op.Kind))
	}
	start := len(b)
	for k := 0; k < (n*n+7)/8; k++ {
		b = append(b, 0)
	}
	g := c.Dag()
	for u := 0; u < n; u++ {
		for _, v := range g.Succs(dag.Node(u)) {
			bit := u*n + int(v)
			b[start+bit/8] |= 1 << (bit % 8)
		}
	}
	return b
}
