package memmodel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/computation"
	"repro/internal/dag"
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
// surviving set S over-approximates Δ* near the boundary. Since pruning
// information flows one size level per augmentation, S is exact only in
// the interior; how deep depends on the model. The experiments exploit
// the sandwich LC ⊆ NN* ⊆ S: whenever S(size ≤ s) = LC(size ≤ s), the
// equality NN* = LC is *proved* for computations of at most s nodes.
//
// Whether (C, Φ) survives depends only on survivors one node larger, so
// the fixpoint needs no iteration: one pass over the interior from the
// largest computations down prunes each computation against
// augmentations that are already final.
//
// Representation: a pair is a universe position and an observer rank,
// the index at which observer.Enumerate visits the observer. Each
// computation's survivors are a bitset over its ranks, and restriction
// from an augmentation to its prefix is arithmetic on ranks (augLink).

// PairSet is a finite memory model represented extensionally: for each
// computation of a universe, the set of surviving observer functions.
// It implements Model; Contains returns false for computations outside
// the universe, so use it only on universe members.
type PairSet struct {
	name  string
	maxN  int
	index map[string]int32 // computation key → universe position (the last, if listed twice)
	alive []*bitset.Set    // alive[i]: the surviving observer ranks of universe[i]
	// base and star count the base model's pairs and the survivors by
	// computation size, each distinct computation once.
	base, star []int
}

// Name returns the set's name, e.g. "NN*".
func (s *PairSet) Name() string { return s.name }

// MaxNodes returns the universe size bound.
func (s *PairSet) MaxNodes() int { return s.maxN }

// Contains reports membership. Computations outside the universe are
// reported as absent; c need only be value-equal to a universe member.
func (s *PairSet) Contains(c *computation.Computation, o *observer.Observer) bool {
	var buf [64]byte
	i, ok := s.index[string(appendKey(buf[:0], c))]
	if !ok {
		return false
	}
	r, ok := observer.Rank(c, o)
	return ok && s.alive[i].Contains(r)
}

// ContainsAt reports whether the rank-th observer function that
// observer.Enumerate visits on universe[i] survived, where universe is
// the slice the set was built from. It is Contains without the lookup,
// for callers that walk the universe in order.
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
// for model m over the given universe of computations (which must be
// closed under augmentation below the maximum size — internal/enum
// universes are). ops is the instruction set O to quantify over,
// typically computation.AllOps(numLocs). The returned PairSet is named
// m.Name() + "*".
func ConstructibleVersion(m Model, universe []*computation.Computation, ops []computation.Op) *PairSet {
	s := &PairSet{
		name:  m.Name() + "*",
		index: make(map[string]int32, len(universe)),
		alive: make([]*bitset.Set, len(universe)),
	}
	for _, c := range universe {
		s.maxN = max(s.maxN, c.NumNodes())
	}
	s.base = make([]int, s.maxN+1)
	s.star = make([]int, s.maxN+1)

	// Membership: decide m once per pair.
	interior := make([][]int32, s.maxN) // positions by size, below the boundary
	var members []int
	for i, c := range universe {
		s.index[string(appendKey(nil, c))] = int32(i)
		members = members[:0]
		rank := 0
		total := observer.Enumerate(c, func(o *observer.Observer) bool {
			if m.Contains(c, o) {
				members = append(members, rank)
			}
			rank++
			return true
		})
		alive := bitset.New(total)
		for _, r := range members {
			alive.Add(r)
		}
		s.alive[i] = alive
		if size := c.NumNodes(); size < s.maxN {
			interior[size] = append(interior[size], int32(i))
		}
	}
	s.countBySize(universe, s.base)

	// A computation listed twice is pruned twice, identically.
	for size := s.maxN - 1; size >= 0; size-- {
		for _, i := range interior[size] {
			c := universe[i]
			for _, op := range ops {
				aug, _ := c.Augment(op)
				j, ok := s.index[string(appendKey(nil, aug))]
				if !ok {
					panic(fmt.Sprintf("memmodel: universe not closed under augmentation: %s missing", aug))
				}
				newAugLink(c, aug).prune(s.alive[i], s.alive[j])
			}
		}
	}

	s.countBySize(universe, s.star)
	return s
}

// countBySize adds each distinct computation's alive pairs to counts at
// its size.
func (s *PairSet) countBySize(universe []*computation.Computation, counts []int) {
	for _, i := range s.index {
		counts[universe[i].NumNodes()] += s.alive[i].Len()
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

// prune removes from alive, C's survivors, every observer that no
// survivor of aug_o(C) in augAlive restricts to.
func (ln augLink) prune(alive, augAlive *bitset.Set) {
	extended := bitset.New(alive.Cap())
	augAlive.ForEach(func(r int) bool {
		extended.Add(ln.prefixRank(r))
		return true
	})
	alive.IntersectWith(extended)
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
