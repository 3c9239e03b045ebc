package memmodel

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
// Pruning against augmentations only is sound for every base model. Δ*
// is constructible, so each Δ* pair extends to each augmentation of its
// computation by a pair inside Δ*; by induction from the boundary down,
// no Δ* pair is ever pruned, and Δ* ⊆ S for the surviving set S. That
// needs no monotonicity, so it holds for TSO too, which is not
// monotonic (DESIGN.md §16). Theorem 12, which reduces
// constructibility to augmentations for monotonic models, would be
// needed only for the converse, S ⊆ Δ*, which no experiment uses.
//
// Boundary effect: pairs at the maximum universe size have no
// augmentation inside the universe and are never pruned, so the
// surviving set S over-approximates Δ*; pruning information flows one
// size level per augmentation, and how far the excess reaches into the
// interior depends on the model and on n. A larger universe does not
// make S exact at a given size: at n = 6, NN survivors still exceed LC
// at size 5 (EXPERIMENTS.md E7). The experiments rely only on the
// sandwich LC ⊆ NN* ⊆ S, for NN* under the literal reading of
// Definition 6 (every pair extends to every extension of its
// computation), the reading this pruning follows: whenever
// S(size ≤ s) = LC(size ≤ s), the equality NN* = LC is *proved* under
// that reading for computations of at most s nodes, which the committed
// runs reach for s = 4 at one and at two locations.
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
// for model m over the given universe of computations, on one worker.
// Its computations of the largest size, maxN, form the boundary; those
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
	boundary := func(_ int, fn func(worker int, c *computation.Computation, weight int64) bool) {
		seen := make(map[string]bool) // each distinct computation counts once
		for _, c := range universe {
			key := string(appendKey(nil, c))
			if c.NumNodes() == maxN && !seen[key] {
				seen[key] = true
				if !fn(0, c, 1) {
					return
				}
			}
		}
	}
	return ConstructibleFixpoint(m, interior, maxN, ops, 1, boundary, nil)
}

// ConstructibleFixpoint computes the greatest fixpoint described above
// for model m over a universe given in two parts. interior holds its
// computations below maxN nodes, closed under augmentation below
// maxN−1 nodes. boundary enumerates its maxN-node computations, each
// with a weight: the number of universe members it stands for (an
// isomorphism class's orbit, for an isomorphism-invariant m, or a
// writer-signature group's summed orbits, for an m that also
// ReadsOnlyWriters). A computation passed to fn is read only during
// the call. The boundary's augmentations are never looked up: the
// maxN−1-node computations are pruned against augmentations decided
// on the fly, and boundary pairs are only counted.
//
// Interior membership, then each fixpoint level from maxN−1 nodes down
// (a level reads only the finished level above it), runs on workers
// goroutines (<= 0 means GOMAXPROCS) that claim the next unclaimed
// computation whenever they finish one. boundary, which spreads the
// boundary count over the workers, is called once, with the worker
// count, and must pass fn a worker index in [0, workers), never running
// two calls with one index at once. Each worker
// decides pairs on its own decider: a PatternDecider asked for m's bit
// when m is a registry row, m.Contains otherwise, which must then be
// safe for concurrent use. The result does not depend on workers. rec
// (nil = off) receives one PhaseStart per stage: "interior
// membership", "fixpoint" and "boundary count".
func ConstructibleFixpoint(m Model, interior []*computation.Computation, maxN int, ops []computation.Op, workers int,
	boundary func(workers int, fn func(worker int, c *computation.Computation, weight int64) bool), rec obs.Recorder) *PairSet {
	if maxN < 0 {
		panic(fmt.Sprintf("memmodel: negative universe size %d", maxN))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
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
	ws := make([]*fixpointWorker, workers)
	for w := range ws {
		ws[w] = newFixpointWorker(m)
	}

	// Membership: decide m once per interior pair. The workers only read
	// the index and the closures (Computation.Closure caches without
	// synchronization), so both are built first.
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "interior membership"})
	bySize := make([][]int32, maxN)
	for i, c := range interior {
		size := c.NumNodes()
		if size >= maxN {
			panic(fmt.Sprintf("memmodel: interior computation %s has %d ≥ %d nodes", c, size, maxN))
		}
		s.index[string(appendKey(nil, c))] = int32(i)
		c.Closure()
		bySize[size] = append(bySize[size], int32(i))
	}
	forEachClaimed(workers, len(interior), func(w, i int) {
		fw := ws[w]
		alive := bitset.New(fw.members(interior[i]))
		for _, r := range fw.ranks {
			alive.Add(r)
		}
		s.alive[i] = alive
	})
	s.countBySize(interior, s.base)

	// A computation listed twice is pruned twice, identically.
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "fixpoint"})
	for size := maxN - 1; size >= 0; size-- {
		level := bySize[size]
		forEachClaimed(workers, len(level), func(w, k int) {
			ws[w].prune(s, interior[level[k]], s.alive[level[k]], ops)
		})
	}
	s.countBySize(interior, s.star)

	// Boundary pairs are never pruned: count them, and keep nothing.
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "boundary count"})
	pairs := make([]int, workers)
	boundary(workers, func(w int, c *computation.Computation, weight int64) bool {
		ws[w].members(c)
		pairs[w] += len(ws[w].ranks) * int(weight)
		return true
	})
	for _, n := range pairs {
		s.base[maxN] += n
	}
	s.star[maxN] = s.base[maxN]
	return s
}

// forEachClaimed calls fn(worker, i) for every i in [0, n), on workers
// goroutines that each claim the next unclaimed i whenever they finish
// one, and returns once every call has.
func forEachClaimed(workers, n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// fixpointWorker is one fixpoint worker's decider and scratch.
type fixpointWorker struct {
	m        Model
	pd       *PatternDecider // nil unless m is a registry row
	bit      uint16          // m's pattern bit, with pd
	walk     *qdagWalk       // nil unless m is a Q-dag row
	ranks    []int           // the member ranks of the last computation asked about
	extended bitset.Set      // the ranks some augmentation survivor restricts to
	key      [64]byte
}

func newFixpointWorker(m Model) *fixpointWorker {
	fw := &fixpointWorker{m: m}
	if e, ok := m.(*Entry); ok {
		if fw.bit = e.patternBit(); fw.bit != 0 {
			fw.pd = NewPatternDecider()
		}
		if fw.bit&patternQDag != 0 {
			fw.walk = newQDagWalk(fw.bit)
		}
	}
	return fw
}

// members sets fw.ranks to the rank of every observer of c that the
// model contains, in increasing order, and returns c's observer count.
// A Q-dag row walks only its members (qdagwalk.go) when c's node ids
// are topological. Otherwise every observer is enumerated; they are
// valid, so a registry row is decided without Validate or a Decision.
func (fw *fixpointWorker) members(c *computation.Computation) int {
	var count int
	if fw.walk != nil && fw.walk.reset(c, nil) {
		count, fw.ranks = fw.walk.each(fw.ranks[:0])
		return count
	}
	if fw.pd != nil {
		fw.pd.Reset(c)
	}
	fw.ranks = fw.ranks[:0]
	rank := 0
	return observer.Enumerate(c, func(o *observer.Observer) bool {
		var in bool
		if fw.pd != nil {
			in = fw.pd.Masked(o, fw.bit) != 0
		} else {
			in = fw.m.Contains(c, o)
		}
		if in {
			fw.ranks = append(fw.ranks, rank)
		}
		rank++
		return true
	})
}

// prune intersects alive, the survivors of interior computation c,
// with the restrictions of each augmentation's survivors. The
// augmentations share one dag. Those of a largest interior computation
// are on the boundary, whose survivors are its base pairs, so they are
// decided here; a Q-dag row walks each as c plus a final node, without
// building it. The others are looked up in s, whose larger levels are
// final.
func (fw *fixpointWorker) prune(s *PairSet, c *computation.Computation, alive *bitset.Set, ops []computation.Op) {
	if len(ops) == 0 {
		return
	}
	cands := observer.Candidates(c)
	walk := c.NumNodes()+1 == s.maxN && fw.walk != nil && fw.walk.reset(c, &ops[0])
	var first *computation.Computation
	if !walk {
		first, _ = c.Augment(ops[0])
	}
	for k, op := range ops {
		switch {
		case walk:
			fw.walk.reset(c, &op)
			_, fw.ranks = fw.walk.each(fw.ranks[:0])
		case k == 0:
			fw.survivors(s, first)
		default:
			fw.survivors(s, first.Relabel(append(append(make([]computation.Op, 0, c.NumNodes()+1), c.Ops()...), op)))
		}
		ln := newAugLink(c, cands, op)
		fw.extended.Reset(alive.Cap())
		for _, r := range fw.ranks {
			fw.extended.Add(ln.prefixRank(r))
		}
		alive.IntersectWith(&fw.extended)
	}
}

// survivors sets fw.ranks to the surviving ranks of aug, an
// augmentation of an interior computation: its members on the
// boundary, and what s holds for it below.
func (fw *fixpointWorker) survivors(s *PairSet, aug *computation.Computation) {
	if aug.NumNodes() == s.maxN {
		fw.members(aug)
		return
	}
	j, ok := s.index[string(appendKey(fw.key[:0], aug))]
	if !ok {
		panic(fmt.Sprintf("memmodel: universe not closed under augmentation: %s missing", aug))
	}
	fw.ranks = fw.ranks[:0]
	s.alive[j].ForEach(func(r int) bool {
		fw.ranks = append(fw.ranks, r)
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

// newAugLink links c, whose observer.Candidates are cands, to
// aug_op(C). The final node's candidates at l are itself when op writes
// l, and otherwise ⊥ and every write to l, none of which it precedes.
func newAugLink(c *computation.Computation, cands [][][]dag.Node, op computation.Op) augLink {
	n := c.NumNodes()
	ln := make(augLink, c.NumLocs())
	stride, augStride := 1, 1
	for l := c.NumLocs() - 1; l >= 0; l-- {
		block := 1
		for u := 0; u < n; u++ {
			block *= len(cands[l][u])
		}
		final := 1 // the final node's candidate count: its location's last digit
		if !op.IsWriteTo(computation.Loc(l)) {
			for _, o := range c.Ops() {
				if o.IsWriteTo(computation.Loc(l)) {
					final++
				}
			}
		}
		augStride *= final
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
