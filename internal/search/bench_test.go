package search_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/trace"
)

// Benchmarks comparing the unified engine against the seed searcher it
// replaced. legacySearchLastWriter below is the pre-engine decision
// procedure, kept verbatim as a baseline: string-keyed memoization (one
// string allocation per search state), no transitive-closure pruning,
// serial only. Run with:
//
//	go test -bench=BenchmarkSearch -benchmem ./internal/search/
//
// The headline numbers live in benchmarks/latest.txt; see
// benchmarks/README.md for the regression workflow.

func legacySearchLastWriter(c *computation.Computation, o *observer.Observer, locs []computation.Loc) ([]dag.Node, bool) {
	n := c.NumNodes()
	if n == 0 {
		return []dag.Node{}, true
	}
	if !legacyPrecheck(c, o, locs) {
		return nil, false
	}

	g := c.Dag()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		indeg[u] = g.InDegree(dag.Node(u))
	}
	last := make([]dag.Node, len(locs))
	for i := range last {
		last[i] = observer.Bottom
	}
	placed := make([]bool, n)
	failed := make(map[string]struct{})

	keyBuf := make([]byte, 0, n+2*len(locs))
	stateKey := func() string {
		keyBuf = keyBuf[:0]
		var acc byte
		for u := 0; u < n; u++ {
			acc = acc << 1
			if placed[u] {
				acc |= 1
			}
			if u%8 == 7 {
				keyBuf = append(keyBuf, acc)
				acc = 0
			}
		}
		keyBuf = append(keyBuf, acc)
		for _, w := range last {
			keyBuf = append(keyBuf, byte(w), byte(int32(w)>>8))
		}
		return string(keyBuf)
	}

	order := make([]dag.Node, 0, n)

	var rec func(remaining int) bool
	rec = func(remaining int) bool {
		if remaining == 0 {
			return true
		}
		key := stateKey()
		if _, bad := failed[key]; bad {
			return false
		}
		for u := 0; u < n; u++ {
			if placed[u] || indeg[u] != 0 {
				continue
			}
			node := dag.Node(u)
			ok := true
			for i, l := range locs {
				want := last[i]
				if c.Op(node).IsWriteTo(l) {
					want = node
				}
				if o.Get(l, node) != want {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			placed[u] = true
			order = append(order, node)
			saved := make([]dag.Node, 0, 2)
			for i, l := range locs {
				if c.Op(node).IsWriteTo(l) {
					saved = append(saved, dag.Node(i), last[i])
					last[i] = node
				}
			}
			for _, v := range g.Succs(node) {
				indeg[v]--
			}
			if rec(remaining - 1) {
				return true
			}
			for _, v := range g.Succs(node) {
				indeg[v]++
			}
			for i := 0; i < len(saved); i += 2 {
				last[saved[i]] = saved[i+1]
			}
			order = order[:len(order)-1]
			placed[u] = false
		}
		failed[key] = struct{}{}
		return false
	}
	if rec(n) {
		return order, true
	}
	return nil, false
}

func legacyPrecheck(c *computation.Computation, o *observer.Observer, locs []computation.Loc) bool {
	cl := c.Closure()
	for _, l := range locs {
		writers := c.Writers(l)
		for u := dag.Node(0); int(u) < c.NumNodes(); u++ {
			w := o.Get(l, u)
			if cl.Precedes(u, w) {
				return false
			}
			for _, x := range writers {
				if x == w {
					continue
				}
				if cl.Precedes(w, x) && cl.PrecedesEq(x, u) {
					return false
				}
			}
		}
	}
	return true
}

func everyLoc(c *computation.Computation) []computation.Loc {
	locs := make([]computation.Loc, c.NumLocs())
	for l := range locs {
		locs[l] = computation.Loc(l)
	}
	return locs
}

// nonSCRing builds the adversarial negative instance: k two-node
// threads, thread i writing x_i then reading x_{(i+1) mod k} as ⊥.
// Each location serializes independently (the pair is in LC), but a
// single sort would need R_i before W_{i+1} for every i — a cycle with
// program order — so the pair is not in SC and any complete searcher
// must exhaust the state space to reject it.
func nonSCRing(k int) (*computation.Computation, *observer.Observer) {
	g := dag.New(2 * k)
	ops := make([]computation.Op, 2*k)
	for i := 0; i < k; i++ {
		g.MustAddEdge(dag.Node(2*i), dag.Node(2*i+1))
		ops[2*i] = computation.W(computation.Loc(i))
		ops[2*i+1] = computation.R(computation.Loc((i + 1) % k))
	}
	c := computation.MustFrom(g, ops, k)
	// Per-location witness sorts: identity order leaves every read of
	// x_j before W_j except the wrap-around reader of x_0, which gets a
	// rotated sort placing thread k-1 first.
	identity := make([]dag.Node, 2*k)
	for i := range identity {
		identity[i] = dag.Node(i)
	}
	rotated := make([]dag.Node, 0, 2*k)
	rotated = append(rotated, dag.Node(2*k-2), dag.Node(2*k-1))
	for i := 0; i < 2*k-2; i++ {
		rotated = append(rotated, dag.Node(i))
	}
	sorts := make([][]dag.Node, k)
	sorts[0] = rotated
	for l := 1; l < k; l++ {
		sorts[l] = identity
	}
	return c, observer.FromPerLocationSorts(c, sorts)
}

// reverseTopo returns the topological sort that greedily prefers the
// highest-numbered ready node — the worst case for a searcher that
// tries candidates in increasing order.
func reverseTopo(g *dag.Dag) []dag.Node {
	n := g.NumNodes()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		indeg[u] = g.InDegree(dag.Node(u))
	}
	order := make([]dag.Node, 0, n)
	for len(order) < n {
		for u := n - 1; u >= 0; u-- {
			if indeg[u] == 0 {
				indeg[u] = -1
				order = append(order, dag.Node(u))
				for _, v := range g.Succs(dag.Node(u)) {
					indeg[v]--
				}
				break
			}
		}
	}
	return order
}

// layeredSC builds a positive instance: a layered random dag whose
// observer is realized by the reverse-greedy sort, so an
// increasing-order searcher backtracks heavily before finding it.
func layeredSC(seed int64, layers, width int) (*computation.Computation, *observer.Observer) {
	rng := rand.New(rand.NewSource(seed))
	g := dag.RandomLayered(rng, layers, width, 0.3)
	ops := make([]computation.Op, g.NumNodes())
	for i := range ops {
		l := computation.Loc(rng.Intn(2))
		if rng.Intn(2) == 0 {
			ops[i] = computation.W(l)
		} else {
			ops[i] = computation.R(l)
		}
	}
	c := computation.MustFrom(g, ops, 2)
	return c, observer.FromLastWriter(c, reverseTopo(g))
}

func BenchmarkSearchSCRingNegative(b *testing.B) {
	for _, k := range []int{8, 12} {
		c, o := nonSCRing(k)
		locs := everyLoc(c)
		b.Run(fmt.Sprintf("legacy/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := legacySearchLastWriter(c, o, locs); ok {
					b.Fatal("ring instance must not be SC")
				}
			}
		})
		b.Run(fmt.Sprintf("engine/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := scDecision(c, o, 1)
				if d.Verdict.In() {
					b.Fatal("ring instance must not be SC")
				}
				if i == 0 {
					b.ReportMetric(float64(d.Stats.States), "states")
				}
			}
		})
	}
}

func BenchmarkSearchSCLayeredPositive(b *testing.B) {
	for _, shape := range []struct{ layers, width int }{{5, 4}, {6, 4}} {
		c, o := layeredSC(99, shape.layers, shape.width)
		locs := everyLoc(c)
		name := fmt.Sprintf("n=%d", c.NumNodes())
		b.Run("legacy/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := legacySearchLastWriter(c, o, locs); !ok {
					b.Fatal("last-writer observer must be SC")
				}
			}
		})
		b.Run("engine/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := scDecision(c, o, 1)
				if !d.Verdict.In() {
					b.Fatal("last-writer observer must be SC")
				}
				if i == 0 {
					b.ReportMetric(float64(d.Stats.States), "states")
				}
			}
		})
	}
}

// Ring sizes the seed searcher cannot decide in reasonable time; the
// engine's closure pruning collapses them. Engine only.
func BenchmarkSearchSCEngineLargeRing(b *testing.B) {
	for _, k := range []int{16, 24} {
		c, o := nonSCRing(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if scDecision(c, o, 1).Verdict.In() {
					b.Fatal("ring instance must not be SC")
				}
			}
		})
	}
}

// legacyVerifySC is the seed checker's constrained search, kept
// verbatim (minus the budget plumbing) as a baseline: string-keyed
// memoization, per-placement slice allocation, no closure pruning.
func legacyVerifySC(t *trace.Trace) bool {
	c := t.Comp
	n := c.NumNodes()
	cons := make([][][]dag.Node, c.NumLocs())
	for l := range cons {
		cons[l] = make([][]dag.Node, n)
	}
	for u := 0; u < n; u++ {
		op := c.Op(dag.Node(u))
		if op.Kind != computation.Read {
			continue
		}
		cands := t.Candidates(dag.Node(u))
		if len(cands) == 0 {
			return false
		}
		cons[op.Loc][u] = cands
	}
	allowed := func(l computation.Loc, u, w dag.Node) bool {
		set := cons[l][u]
		if set == nil {
			return true
		}
		for _, x := range set {
			if x == w {
				return true
			}
		}
		return false
	}
	locs := everyLoc(c)

	g := c.Dag()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		indeg[u] = g.InDegree(dag.Node(u))
	}
	last := make([]dag.Node, len(locs))
	for i := range last {
		last[i] = observer.Bottom
	}
	placed := make([]bool, n)
	failed := make(map[string]struct{})
	order := make([]dag.Node, 0, n)

	keyBuf := make([]byte, 0, n/8+1+2*len(locs))
	stateKey := func() string {
		keyBuf = keyBuf[:0]
		var acc byte
		for u := 0; u < n; u++ {
			acc = acc << 1
			if placed[u] {
				acc |= 1
			}
			if u%8 == 7 {
				keyBuf = append(keyBuf, acc)
				acc = 0
			}
		}
		keyBuf = append(keyBuf, acc)
		for _, w := range last {
			keyBuf = append(keyBuf, byte(w), byte(int32(w)>>8))
		}
		return string(keyBuf)
	}

	var rec func(remaining int) bool
	rec = func(remaining int) bool {
		if remaining == 0 {
			return true
		}
		key := stateKey()
		if _, bad := failed[key]; bad {
			return false
		}
		for u := 0; u < n; u++ {
			if placed[u] || indeg[u] != 0 {
				continue
			}
			node := dag.Node(u)
			ok := true
			for i, l := range locs {
				have := last[i]
				if c.Op(node).IsWriteTo(l) {
					have = node
				}
				if !allowed(l, node, have) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			placed[u] = true
			order = append(order, node)
			var saved []dag.Node
			for i, l := range locs {
				if c.Op(node).IsWriteTo(l) {
					saved = append(saved, dag.Node(i), last[i])
					last[i] = node
				}
			}
			for _, v := range g.Succs(node) {
				indeg[v]--
			}
			if rec(remaining - 1) {
				return true
			}
			for _, v := range g.Succs(node) {
				indeg[v]++
			}
			for i := 0; i < len(saved); i += 2 {
				last[saved[i]] = saved[i+1]
			}
			order = order[:len(order)-1]
			placed[u] = false
		}
		failed[key] = struct{}{}
		return false
	}
	return rec(n)
}

// collisionTrace builds the memoization-heavy checker workload: a
// random computation whose writes carry only two distinct values, so
// every read has many candidate writers and the constrained search
// branches heavily before committing. The trace stays explainable (its
// values come from a real serialization), making this the positive,
// memo-dominated path.
func collisionTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	g := dag.Random(rng, n, 0.15)
	ops := make([]computation.Op, n)
	for i := range ops {
		l := computation.Loc(rng.Intn(2))
		if rng.Intn(3) == 0 {
			ops[i] = computation.W(l)
		} else {
			ops[i] = computation.R(l)
		}
	}
	c := computation.MustFrom(g, ops, 2)
	o := observer.FromLastWriter(c, reverseTopo(g))
	t := trace.FromObserver(c, o)
	for u := 0; u < n; u++ {
		if c.Op(dag.Node(u)).Kind == computation.Write {
			t.WriteVal[u] = trace.Value(1 + u%2)
		}
	}
	for u := 0; u < n; u++ {
		op := c.Op(dag.Node(u))
		if op.Kind != computation.Read {
			continue
		}
		w := o.Get(op.Loc, dag.Node(u))
		if w == observer.Bottom {
			t.ReadVal[u] = trace.Undefined
		} else {
			t.ReadVal[u] = t.WriteVal[w]
		}
	}
	return t
}

// Post-mortem checking on the collision workload: many candidate
// writers per read force deep, memoized backtracking in both the seed
// checker and the engine, so per-state costs (one string allocation per
// state in the seed, none in the engine) dominate.
func BenchmarkSearchCheckerSCCollision(b *testing.B) {
	for _, n := range []int{24, 36} {
		tr := collisionTrace(1234, n)
		b.Run(fmt.Sprintf("legacy/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !legacyVerifySC(tr) {
					b.Fatal("collision trace must verify")
				}
			}
		})
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, stats := checker.VerifySCOpts(tr, checker.SearchOptions{Workers: 1})
				if !res.OK {
					b.Fatal("collision trace must verify")
				}
				if i == 0 {
					b.ReportMetric(float64(stats.States), "states")
				}
			}
		})
	}
}
