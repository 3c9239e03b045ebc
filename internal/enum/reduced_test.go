package enum

import (
	"context"
	"fmt"
	"sync/atomic"
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

// TestEachComputationReducedParallelMatchesSerial: at every worker
// count the parallel enumeration visits the multiset of (computation,
// orbit) the serial one does, passing in-range worker indices, and the
// closure each labelling shares is its dag's.
func TestEachComputationReducedParallelMatchesSerial(t *testing.T) {
	cases := []struct{ n, locs int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {0, 2}, {1, 2}, {2, 2}, {3, 2},
	}
	key := func(c *computation.Computation, orbit int64) string { return fmt.Sprintf("%v ×%d", c, orbit) }
	for _, tc := range cases {
		want := map[string]int{}
		reps := EachComputationReduced(tc.n, tc.locs, func(c *computation.Computation, orbit int64) bool {
			want[key(c, orbit)]++
			return true
		})
		for workers := 1; workers <= 3; workers++ {
			seen := make([]map[string]int, workers) // one per worker: its calls never overlap
			for w := range seen {
				seen[w] = map[string]int{}
			}
			visited := EachComputationReducedParallel(tc.n, tc.locs, workers, func(w int, c *computation.Computation, orbit int64) bool {
				if w < 0 || w >= workers {
					t.Errorf("worker index %d of %d", w, workers)
					return false
				}
				if err := sameClosure(c); err != nil {
					t.Errorf("%v: %v", c, err)
				}
				seen[w][key(c, orbit)]++
				return true
			})
			got := map[string]int{}
			for _, m := range seen {
				for k, v := range m {
					got[k] += v
				}
			}
			if visited != reps || len(got) != len(want) {
				t.Fatalf("n=%d locs=%d workers=%d: %d visits of %d representatives, want %d of %d",
					tc.n, tc.locs, workers, visited, len(got), reps, len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("n=%d locs=%d workers=%d: %s visited %d times, want %d", tc.n, tc.locs, workers, k, got[k], v)
				}
			}
		}
	}
}

// sameClosure reports whether c's closure, shared with the other
// labellings of its dag, is the closure of that dag.
func sameClosure(c *computation.Computation) error {
	want, got := dag.MustClosure(c.Dag()), c.Closure()
	for u := 0; u < c.NumNodes(); u++ {
		for v := 0; v < c.NumNodes(); v++ {
			if got.Precedes(dag.Node(u), dag.Node(v)) != want.Precedes(dag.Node(u), dag.Node(v)) {
				return fmt.Errorf("closure disagrees with its dag at %d ≺ %d", u, v)
			}
		}
	}
	return nil
}

// TestEachComputationReducedParallelStops: a worker whose fn returns
// false makes no further call, and the others stop too.
func TestEachComputationReducedParallelStops(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		var calls atomic.Int64
		visited := EachComputationReducedParallel(4, 1, workers, func(int, *computation.Computation, int64) bool {
			calls.Add(1)
			return false
		})
		if visited != int(calls.Load()) || visited < 1 || visited > workers {
			t.Errorf("workers=%d, every call false: %d visits, %d calls", workers, visited, calls.Load())
		}
	}
	// Only the first call returns false. Without a shared stop, the
	// other workers would go on to visit nearly every representative.
	total := EachComputationReduced(4, 2, func(*computation.Computation, int64) bool { return true })
	var calls atomic.Int64
	visited := EachComputationReducedParallel(4, 2, 3, func(int, *computation.Computation, int64) bool {
		return calls.Add(1) != 1
	})
	if visited != int(calls.Load()) || visited > total/2 {
		t.Errorf("first call false: %d visits, %d calls, of %d representatives", visited, calls.Load(), total)
	}
}

// TestGroupsPartitionReduced: at every worker count the groups of
// EachGroupReducedParallel partition the multiset of (labelling, orbit)
// that EachComputationReduced visits. Each group is one dag and one
// writer signature: C is its first member, every member labels C's dag
// with C's writers, and no two groups share a dag and a signature. A
// dag's groups come in signature order, and a group's members in the
// order EachComputationReduced visits them.
func TestGroupsPartitionReduced(t *testing.T) {
	cases := []struct{ n, locs int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {0, 2}, {1, 2}, {2, 2}, {3, 2}, {2, 3},
	}
	key := func(c *computation.Computation, orbit int64) string { return fmt.Sprintf("%v ×%d", c, orbit) }
	// writersOnly renders c with every node that writes nothing a no-op.
	writersOnly := func(c *computation.Computation) string {
		ops := make([]computation.Op, c.NumNodes())
		for u, op := range c.Ops() {
			if op.Kind == computation.Write {
				ops[u] = op
			}
		}
		return c.Relabel(ops).String()
	}
	for _, tc := range cases {
		want, pos := map[string]int{}, map[string]int{}
		EachComputationReduced(tc.n, tc.locs, func(c *computation.Computation, orbit int64) bool {
			want[key(c, orbit)]++
			pos[key(c, orbit)] = len(pos)
			return true
		})
		for workers := 1; workers <= 3; workers++ {
			got := make([]map[string]int, workers) // one per worker: its calls never overlap
			sigs := make([][]string, workers)
			lastDag, lastSig := make([]string, workers), make([]uint64, workers)
			for w := range got {
				got[w] = map[string]int{}
			}
			EachGroupReducedParallel(tc.n, tc.locs, workers, func(w int, g *Group) bool {
				if len(g.Labels) == 0 || len(g.Labels) != len(g.Orbits) || fmt.Sprint(g.C.Ops()) != fmt.Sprint(g.Labels[0]) {
					t.Errorf("n=%d locs=%d: group of %d labellings and %d orbits, C %v", tc.n, tc.locs, len(g.Labels), len(g.Orbits), g.C)
					return false
				}
				if err := sameClosure(g.C); err != nil {
					t.Errorf("%v: %v", g.C, err)
				}
				sig := writersOnly(g.C)
				if d, s := fmt.Sprint(g.C.Dag().Edges()), signature(g.Labels[0], tc.locs); d == lastDag[w] && s <= lastSig[w] {
					t.Errorf("n=%d locs=%d: group %s follows a group of signature %d", tc.n, tc.locs, sig, lastSig[w])
				} else {
					lastDag[w], lastSig[w] = d, s
				}
				prev := -1
				for i, ops := range g.Labels {
					m := g.C.Relabel(append([]computation.Op(nil), ops...))
					if writersOnly(m) != sig {
						t.Errorf("a group of %s holds %v", sig, m)
					}
					if p := pos[key(m, g.Orbits[i])]; p <= prev {
						t.Errorf("n=%d locs=%d: a group of %s lists %v out of enumeration order", tc.n, tc.locs, sig, m)
					} else {
						prev = p
					}
					got[w][key(m, g.Orbits[i])]++
				}
				sigs[w] = append(sigs[w], sig)
				return true
			})
			merged, groups := map[string]int{}, map[string]bool{}
			for w, m := range got {
				for k, v := range m {
					merged[k] += v
				}
				for _, sig := range sigs[w] {
					if groups[sig] {
						t.Fatalf("n=%d locs=%d workers=%d: two groups of %s", tc.n, tc.locs, workers, sig)
					}
					groups[sig] = true
				}
			}
			if fmt.Sprint(merged) != fmt.Sprint(want) {
				t.Fatalf("n=%d locs=%d workers=%d: groups hold %v, EachComputationReduced visits %v", tc.n, tc.locs, workers, merged, want)
			}
		}
	}
}
