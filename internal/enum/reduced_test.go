package enum

import (
	"context"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// TestReducedOrbitsCoverUniverse: Σ orbit over the canonical
// representatives equals the full enumeration count, per size, and the
// representative stream is a subsequence of the full stream.
func TestReducedOrbitsCoverUniverse(t *testing.T) {
	cases := []struct{ n, locs int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {2, 2}, {3, 2},
	}
	for _, tc := range cases {
		var full []string
		EachComputation(tc.n, tc.locs, func(c *computation.Computation) bool {
			full = append(full, c.String())
			return true
		})
		var members int64
		reps := 0
		cursor := 0
		EachComputationReduced(tc.n, tc.locs, func(c *computation.Computation, orbit int64) bool {
			if orbit < 1 {
				t.Fatalf("n=%d locs=%d: orbit %d < 1 for %v", tc.n, tc.locs, orbit, c)
			}
			members += orbit
			reps++
			key := c.String()
			for cursor < len(full) && full[cursor] != key {
				cursor++
			}
			if cursor == len(full) {
				t.Fatalf("n=%d locs=%d: representative %s not in enumeration order", tc.n, tc.locs, key)
			}
			cursor++
			return true
		})
		if members != int64(len(full)) {
			t.Errorf("n=%d locs=%d: orbits cover %d members, universe has %d (%d reps)",
				tc.n, tc.locs, members, len(full), reps)
		}
		if reps >= len(full) && tc.n > 1 {
			t.Errorf("n=%d locs=%d: no reduction (%d reps of %d members)", tc.n, tc.locs, reps, len(full))
		}
	}
}

// TestOrbitSoundness decides every isomorphism-class member and checks
// each decides identically to its canonical representative under every
// registered model — the invariance assumption every lattice, census
// and property answer rests on.
func TestOrbitSoundness(t *testing.T) {
	models := memmodel.PatternModels()
	decide := func(c *computation.Computation) []int {
		var sig []int
		observer.Enumerate(c, func(o *observer.Observer) bool {
			bits := 0
			for i, m := range models {
				if m.Contains(c, o) {
					bits |= 1 << i
				}
			}
			sig = append(sig, bits)
			return true
		})
		return sig
	}
	// For every canonical representative at n=3, decide every member of
	// its class (images under all topological relabelings) and compare
	// the multiset of per-observer membership signatures.
	check := func(c *computation.Computation, orbit int64) bool {
		repSig := decide(c)
		repCount := make(map[int]int)
		for _, s := range repSig {
			repCount[s]++
		}
		n := c.NumNodes()
		lidx := make([]int32, n)
		for u := 0; u < n; u++ {
			lidx[u] = int32(opIndex(c.Op(dag.Node(u)), c.NumLocs()))
		}
		seen := map[string]bool{}
		eachTopoPerm(c.Dag(), func(perm []dag.Node) {
			g := dag.New(n)
			labels := make([]computation.Op, n)
			for pos, orig := range perm {
				labels[pos] = c.Op(orig)
			}
			for u := 0; u < n; u++ {
				for _, v := range c.Dag().Succs(dag.Node(u)) {
					g.MustAddEdge(posOf(perm, dag.Node(u)), posOf(perm, v))
				}
			}
			m := computation.MustFrom(g, labels, c.NumLocs())
			if seen[m.String()] {
				return
			}
			seen[m.String()] = true
			memCount := make(map[int]int)
			for _, s := range decide(m) {
				memCount[s]++
			}
			if len(memCount) != len(repCount) {
				t.Fatalf("member %v of class %v: signature multiset differs", m, c)
			}
			for k, v := range repCount {
				if memCount[k] != v {
					t.Fatalf("member %v of class %v: signature %b count %d != %d", m, c, k, memCount[k], v)
				}
			}
		})
		if int64(len(seen)) != orbit {
			t.Fatalf("class %v: %d distinct members, orbit says %d", c, len(seen), orbit)
		}
		return true
	}
	// TSO, RA and CAUSAL separate from SC only with two locations.
	for _, locs := range []int{1, 2} {
		EachComputationReduced(3, locs, check)
	}
}

func opIndex(op computation.Op, numLocs int) int {
	for i, o := range computation.AllOps(numLocs) {
		if o == op {
			return i
		}
	}
	panic("op not in palette")
}

func posOf(perm []dag.Node, orig dag.Node) dag.Node {
	for pos, o := range perm {
		if o == orig {
			return dag.Node(pos)
		}
	}
	panic("node not in perm")
}

// eachTopoPerm enumerates every topological relabeling perm
// (perm[position] = original node) of d.
func eachTopoPerm(d *dag.Dag, fn func(perm []dag.Node)) {
	n := d.NumNodes()
	perm := make([]dag.Node, n)
	placed := make([]bool, n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			fn(perm)
			return
		}
		for u := 0; u < n; u++ {
			if placed[u] {
				continue
			}
			ok := true
			for _, p := range d.Preds(dag.Node(u)) {
				if !placed[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			placed[u] = true
			perm[pos] = dag.Node(u)
			rec(pos + 1)
			placed[u] = false
		}
	}
	rec(0)
}

// TestCompareReducedMatchesCompare: the orbit-weighted sweep must
// reproduce the serial unreduced Compare's counts exactly.
func TestCompareReducedMatchesCompare(t *testing.T) {
	pairs := []struct{ a, b memmodel.Model }{
		{memmodel.SC, memmodel.LC},
		{memmodel.NW, memmodel.WN},
		{memmodel.LC, memmodel.NN},
	}
	maxNodes := 4
	if testing.Short() {
		maxNodes = 3
	}
	for _, mp := range pairs {
		for n := 2; n <= maxNodes; n++ {
			seq := Compare(mp.a, mp.b, n, 1)
			if red := sweepRelation(t, mp.a, mp.b, n, 1, 2); red != seq {
				t.Fatalf("n=%d %s vs %s: reduced %+v != unreduced %+v", n, mp.a.Name(), mp.b.Name(), red, seq)
			}
		}
	}
}

// TestReducedCensusAndPairCounts: the orbit-weighted pattern census
// equals the one counted over every pair of the unreduced universe,
// for one and two locations and any worker count.
func TestReducedCensusAndPairCounts(t *testing.T) {
	models := memmodel.PatternModels()
	for _, locs := range []int{1, 2} {
		var want [512]int64
		EachPair(3, locs, func(c *computation.Computation, o *observer.Observer) bool {
			p := 0
			for i, m := range models {
				if m.Contains(c, o) {
					p |= 1 << i
				}
			}
			want[p]++
			return true
		})
		for _, workers := range []int{1, 3} {
			s, err := PatternSweepParallel(context.Background(), nil, 3, locs, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Counts != want {
				t.Fatalf("locs=%d workers=%d: reduced pattern census differs from the unreduced one", locs, workers)
			}
		}
	}
}
