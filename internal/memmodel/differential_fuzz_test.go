package memmodel

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// Differential fuzzing for the three hardware/language deciders: each
// target parses a fuzzer-mutated .ccm pair and compares the production
// decider against a brute-force oracle written straight from the
// model's definition — full permutation enumeration, an independent
// happens-before closure, no engine, no shared decider code. Seeds are
// the litmus corpus; CI runs these as fuzz smokes (see ci.yml).

// fuzzPair parses and bounds a fuzzer input. The caps keep the
// factorial oracles cheap; maxNodes is per-target (TSO pays for a
// two-event expansion, the polynomial deciders don't).
func fuzzPair(t *testing.T, data []byte, maxNodes int) (*computation.Computation, *observer.Observer) {
	t.Helper()
	named, o, err := observer.ParsePairString(string(data))
	if err != nil {
		t.Skip()
	}
	c := named.Comp
	if c.NumNodes() > maxNodes || c.NumLocs() > 3 {
		t.Skip()
	}
	return c, o
}

func seedLitmus(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "litmus", "*.ccm"))
	for _, p := range seeds {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b)
		}
	}
}

func FuzzTSODifferential(f *testing.F) {
	seedLitmus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, o := fuzzPair(t, data, 4)
		got := TSO.Contains(c, o)
		want := oracleTSO(c, o)
		if got != want {
			t.Fatalf("TSO decider %v, oracle %v on\n%s/ %s", got, want, c, o)
		}
	})
}

func FuzzRADifferential(f *testing.F) {
	seedLitmus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, o := fuzzPair(t, data, 5)
		got := RA.Contains(c, o)
		want := oracleRA(c, o)
		if got != want {
			t.Fatalf("RA decider %v, oracle %v on\n%s/ %s", got, want, c, o)
		}
	})
}

// causalCrossLocation is out of CAUSAL only through the joint check of
// the location digraph, on the smallest shape that needs it: five
// nodes, which TestExtensionModelsMatchOracles does not reach. Reader
// u sees x = a and y = b, so its past must linearize c before a and d
// before b; hb orders a before d and b before c, so the four close a
// cycle through both locations while neither location alone has a
// shadowed view.
const causalCrossLocation = `locs x y
node a W(x)
node b W(y)
node c W(x)
node d W(y)
node u R(x)
edge a d
edge b c
edge c u
edge d u
observe c y b
observe d x a
observe u x a
observe u y b
`

func FuzzCausalDifferential(f *testing.F) {
	seedLitmus(f)
	f.Add([]byte(causalCrossLocation))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, o := fuzzPair(t, data, 5)
		got := CAUSAL.Contains(c, o)
		want := oracleCausal(c, o)
		if got != want {
			t.Fatalf("CAUSAL decider %v, oracle %v on\n%s/ %s", got, want, c, o)
		}
	})
}

// TestExtensionModelsMatchOracles runs the oracles over the whole small
// universe — every pair of the n ≤ 4 one-location and n ≤ 3
// two-location computations — and requires the RA, CAUSAL and TSO
// Contains verdicts and the matching bits of one reused PatternDecider
// to agree with them. Contains and Pattern share their deciders'
// cores, so only the oracles check those cores independently.
func TestExtensionModelsMatchOracles(t *testing.T) {
	models := []struct {
		m      Model
		bit    uint16
		oracle func(*computation.Computation, *observer.Observer) bool
	}{
		{RA, PatternRA, oracleRA},
		{CAUSAL, PatternCAUSAL, oracleCausal},
		{TSO, PatternTSO, oracleTSO},
	}
	pd := NewPatternDecider()
	for _, tc := range []struct{ n, locs int }{
		{1, 1}, {2, 1}, {3, 1}, {4, 1},
		{1, 2}, {2, 2}, {3, 2},
	} {
		pairs := 0
		eachComputationLocal(tc.n, tc.locs, func(c *computation.Computation) {
			pd.Reset(c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				pattern := pd.Pattern(o)
				for _, mc := range models {
					want := mc.oracle(c, o)
					if got := mc.m.Contains(c, o); got != want {
						t.Fatalf("n=%d locs=%d %v / %v: %s Contains %v, oracle %v", tc.n, tc.locs, c, o, mc.m.Name(), got, want)
					}
					if got := pattern&mc.bit != 0; got != want {
						t.Fatalf("n=%d locs=%d %v / %v: %s pattern bit %v, oracle %v", tc.n, tc.locs, c, o, mc.m.Name(), got, want)
					}
				}
				pairs++
				return true
			})
		})
		if pairs == 0 {
			t.Fatalf("n=%d locs=%d: no pairs enumerated", tc.n, tc.locs)
		}
	}
}

// forEachPerm enumerates every permutation of 0..k-1, calling fn until
// it returns false (found). Returns false when fn stopped the walk.
func forEachPerm(k int, fn func(perm []int) bool) bool {
	perm := make([]int, k)
	used := make([]bool, k)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return fn(perm)
		}
		for v := 0; v < k; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			perm[i] = v
			if !rec(i + 1) {
				return false
			}
			used[v] = false
		}
		return true
	}
	return rec(0)
}

// oracleHB computes hb = (precedence ∪ observation)⁺ by Floyd-Warshall
// over an explicit boolean matrix, sharing no code with hbCore. ok is false
// when hb is cyclic.
func oracleHB(c *computation.Computation, o *observer.Observer) ([][]bool, bool) {
	n := c.NumNodes()
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
	}
	for u := 0; u < n; u++ {
		for _, v := range c.Dag().Succs(dag.Node(u)) {
			hb[u][v] = true
		}
	}
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		for u := 0; u < n; u++ {
			if w := o.Get(l, dag.Node(u)); w != observer.Bottom && w != dag.Node(u) {
				hb[w][u] = true
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if hb[i][k] && hb[k][j] {
					hb[i][j] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if hb[i][i] {
			return nil, false
		}
	}
	return hb, true
}

// oracleTSO decides TSO membership by literal store-buffer simulation:
// enumerate every interleaving of the two-event expansion (issues for
// all nodes, commits for writes) and accept when one realizes Φ — the
// event-order constraints and the buffered/memory view rule are
// re-derived here from the model's prose definition, not from tsoSpec.
func oracleTSO(c *computation.Computation, o *observer.Observer) bool {
	n := c.NumNodes()
	cl := c.Closure()
	commitOf := make([]int, n)
	nEvents := n
	for u := 0; u < n; u++ {
		commitOf[u] = -1
		if c.Op(dag.Node(u)).Kind == computation.Write {
			commitOf[u] = nEvents
			nEvents++
		}
	}
	pos := make([]int, nEvents) // ≤ 8 events at the fuzz cap of 4 nodes
	ok := func(perm []int) bool {
		for i, ev := range perm {
			pos[ev] = i
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && cl.Precedes(dag.Node(u), dag.Node(v)) {
					// Issues respect program order; FIFO buffers; a noop
					// is a fence no earlier commit may cross.
					if pos[u] >= pos[v] {
						return false
					}
					if commitOf[u] >= 0 {
						if commitOf[v] >= 0 && pos[commitOf[u]] >= pos[commitOf[v]] {
							return false
						}
						if c.Op(dag.Node(v)).Kind == computation.Noop && pos[commitOf[u]] >= pos[v] {
							return false
						}
					}
				}
			}
			if commitOf[u] >= 0 && pos[u] >= pos[commitOf[u]] {
				return false
			}
		}
		for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
			for u := 0; u < n; u++ {
				node := dag.Node(u)
				if c.Op(node).IsWriteTo(l) {
					continue // a writer forwards its own write
				}
				want := o.Get(l, node)
				// The buffer at u's issue: past l-writes not yet
				// committed. Forwarding is mandatory, and the view must
				// be a C-maximal buffered write.
				buffered := false
				for _, w := range c.Writers(l) {
					if cl.Precedes(w, node) && pos[commitOf[w]] > pos[u] {
						buffered = true
						if want != observer.Bottom && w != want && cl.Precedes(want, w) {
							return false // a newer buffered write shadows want
						}
					}
				}
				if buffered {
					if want == observer.Bottom || !cl.Precedes(want, node) || pos[commitOf[want]] < pos[u] {
						return false
					}
					continue
				}
				// Memory read: the view is the last commit before issue.
				mem := observer.Bottom
				best := -1
				for _, w := range c.Writers(l) {
					if p := pos[commitOf[w]]; p < pos[u] && p > best {
						mem, best = w, p
					}
				}
				if mem != want {
					return false
				}
			}
		}
		return true
	}
	return !forEachPerm(nEvents, func(perm []int) bool { return !ok(perm) })
}

// oracleRA decides release/acquire membership by enumerating, per
// location, every candidate modification order and checking the
// coherence axioms (CoWW, CoWR, CoRW, and the ⊥ rule) directly.
func oracleRA(c *computation.Computation, o *observer.Observer) bool {
	hb, ok := oracleHB(c, o)
	if !ok {
		return false
	}
	n := c.NumNodes()
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		writers := c.Writers(l)
		idx := make(map[dag.Node]int, len(writers))
		for i, w := range writers {
			idx[w] = i
		}
		moOK := func(perm []int) bool {
			mo := make([]int, len(writers)) // writer index -> position
			for p, wi := range perm {
				mo[wi] = p
			}
			for i, w := range writers {
				for j, x := range writers {
					if i != j && hb[w][x] && mo[i] >= mo[j] {
						return false
					}
				}
			}
			for u := 0; u < n; u++ {
				node := dag.Node(u)
				want := o.Get(l, node)
				if want == observer.Bottom {
					for _, w := range writers {
						if hb[w][node] {
							return false
						}
					}
					continue
				}
				wi := idx[want]
				for j, w := range writers {
					if j == wi {
						continue
					}
					if hb[w][node] && mo[j] >= mo[wi] {
						return false // hidden write
					}
					if hb[node][w] && mo[wi] >= mo[j] {
						return false // future write
					}
				}
			}
			return true
		}
		if forEachPerm(len(writers), func(perm []int) bool { return !moOK(perm) }) {
			return false // every candidate mo violated an axiom
		}
	}
	return true
}

// oracleCausal decides causal-memory membership by enumerating, per
// node, every linearization of its causal past and checking that some
// one respects hb with each location's view last among its writes.
func oracleCausal(c *computation.Computation, o *observer.Observer) bool {
	hb, ok := oracleHB(c, o)
	if !ok {
		return false
	}
	n := c.NumNodes()
	for u := 0; u < n; u++ {
		node := dag.Node(u)
		var past []dag.Node
		for v := 0; v < n; v++ {
			if dag.Node(v) == node || hb[v][u] {
				past = append(past, dag.Node(v))
			}
		}
		linOK := func(perm []int) bool {
			for i := range perm {
				for j := i + 1; j < len(perm); j++ {
					if hb[past[perm[j]]][past[perm[i]]] {
						return false
					}
				}
			}
			for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
				if c.Op(node).IsWriteTo(l) {
					continue // own write is hb-maximal in the past
				}
				want := o.Get(l, node)
				lastW := observer.Bottom
				for _, pi := range perm {
					if c.Op(past[pi]).IsWriteTo(l) {
						lastW = past[pi]
					}
				}
				if lastW != want {
					return false
				}
			}
			return true
		}
		if forEachPerm(len(past), func(perm []int) bool { return !linOK(perm) }) {
			return false // no linearization of u's past realizes its view
		}
	}
	return true
}
