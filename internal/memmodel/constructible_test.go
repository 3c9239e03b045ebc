package memmodel

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/paperfig"
)

// Figure 4: NN is not constructible. The prefix pair is in NN, but no
// observer on the extension by a non-writing node restricts to it.
func TestFigure4NNNotConstructible(t *testing.T) {
	fx := paperfig.Figure4()
	if !NN.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("Figure 4 prefix must be in NN")
	}
	for _, op := range []computation.Op{computation.N, computation.R(0)} {
		ext, _ := fx.Extend(op)
		if CanExtend(NN, fx.Prefix, fx.PrefixObs, ext) {
			t.Fatalf("NN must not extend across a %s final node", op)
		}
	}
	// "Unless F writes to the memory location": a write escapes.
	ext, _ := fx.Extend(computation.W(0))
	if !CanExtend(NN, fx.Prefix, fx.PrefixObs, ext) {
		t.Fatal("NN must extend across a writing final node")
	}
	// The augmentation criterion of Theorem 12 also fails at this pair.
	if op, ok := ConstructibleAtAug(NN, fx.Prefix, fx.PrefixObs, computation.AllOps(1)); ok {
		t.Fatal("ConstructibleAtAug must fail for NN at the Figure 4 prefix")
	} else if op.Kind == computation.Write {
		t.Fatalf("failing op should be a non-write, got %s", op)
	}
}

// Theorem 19: SC and LC extend across every augmentation at every pair
// of a sample; here the Figure 4 shape with LC-compatible observers.
func TestSCLCConstructibleAtSamples(t *testing.T) {
	samples := []paperfig.Fixture{paperfig.Dekker()}
	// Add a last-writer pair on the Figure 4 computation.
	fx := paperfig.Figure4()
	order, err := fx.Prefix.Dag().TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	samples = append(samples, paperfig.Fixture{
		Name: "Fig4-last-writer",
		Comp: fx.Prefix,
		Obs:  observer.FromLastWriter(fx.Prefix, order),
	})
	for _, s := range samples {
		ops := computation.AllOps(s.Comp.NumLocs())
		for _, m := range []Model{SC, LC} {
			if !m.Contains(s.Comp, s.Obs) {
				continue
			}
			if op, ok := ConstructibleAtAug(m, s.Comp, s.Obs, ops); !ok {
				t.Errorf("%s: %s failed to extend across aug by %s", s.Name, m.Name(), op)
			}
			if ext, ok := ConstructibleAtFull(m, s.Comp, s.Obs, ops); !ok {
				t.Errorf("%s: %s failed to extend across %v", s.Name, m.Name(), ext)
			}
		}
	}
}

func TestMonotonicAtFixtures(t *testing.T) {
	for _, fx := range []paperfig.Fixture{paperfig.Figure2(), paperfig.Figure3(), paperfig.Dekker()} {
		for _, m := range []Model{SC, LC, NN, NW, WN, WW} {
			if !MonotonicAt(m, fx.Comp, fx.Obs) {
				t.Errorf("%s not monotonic at %s", m.Name(), fx.Name)
			}
		}
	}
}

func TestHasObserver(t *testing.T) {
	fx := paperfig.Figure4()
	for _, m := range []Model{SC, LC, NN, NW, WN, WW} {
		if !HasObserver(m, fx.Prefix) {
			t.Errorf("%s has no observer for the Figure 4 computation", m.Name())
		}
	}
	never := Func("NEVER", func(*computation.Computation, *observer.Observer) bool { return false })
	if HasObserver(never, fx.Prefix) {
		t.Error("empty model reported an observer")
	}
}

func TestCanExtendRequiresOneNodeExtension(t *testing.T) {
	fx := paperfig.Figure4()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a non-extension")
		}
	}()
	CanExtend(NN, fx.Prefix, fx.PrefixObs, fx.Prefix)
}

// smallUniverse materializes all computations up to maxNodes over one
// location, locally (avoiding an import cycle with internal/enum).
func smallUniverse(maxNodes int) []*computation.Computation {
	return smallUniverseLocs(maxNodes, 1)
}

// smallUniverseLocs is smallUniverse over numLocs locations.
func smallUniverseLocs(maxNodes, numLocs int) []*computation.Computation {
	var out []*computation.Computation
	ops := computation.AllOps(numLocs)
	for n := 0; n <= maxNodes; n++ {
		dag.EachDagOnNodes(n, func(g *dag.Dag) bool {
			labels := make([]computation.Op, n)
			var rec func(i int)
			rec = func(i int) {
				if i == n {
					out = append(out, computation.MustFrom(g.Clone(), append([]computation.Op(nil), labels...), numLocs))
					return
				}
				for _, op := range ops {
					labels[i] = op
					rec(i + 1)
				}
			}
			rec(0)
			return true
		})
	}
	return out
}

// The fixpoint engine must not prune anything from a constructible
// model: LC* = LC on the whole universe.
func TestConstructibleVersionOfLCIsLC(t *testing.T) {
	universe := smallUniverse(3)
	star := ConstructibleVersion(LC, universe, computation.AllOps(1))
	if star.Name() != "LC*" {
		t.Fatalf("name = %q", star.Name())
	}
	for _, c := range universe {
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if LC.Contains(c, o) != star.Contains(c, o) {
				t.Fatalf("LC* differs from LC at %v / %v", c, o)
			}
			return true
		})
	}
}

// Theorem 23 in miniature: NN* = LC on the interior of the universe.
// The sandwich LC ⊆ NN* ⊆ survivors makes interior equality a proof of
// NN* = LC for those sizes (see constructible.go). With a 3-node
// universe there is nothing to prune (the minimal non-constructibility
// witness, Figure 4, needs 4 nodes), so this test verifies both facts:
// no pruning at n ≤ 3, pruning exactly down to LC on the interior of
// the 4-node universe.
func TestTheorem23NNStarIsLCInterior(t *testing.T) {
	small := smallUniverse(3)
	star3 := ConstructibleVersion(NN, small, computation.AllOps(1))
	for _, c := range small {
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if NN.Contains(c, o) != star3.Contains(c, o) {
				t.Fatalf("unexpected pruning at ≤3 nodes: %v / %v", c, o)
			}
			return true
		})
	}

	if testing.Short() {
		t.Skip("4-node fixpoint universe skipped in -short mode")
	}
	maxN := 4
	universe := smallUniverse(maxN)
	star := ConstructibleVersion(NN, universe, computation.AllOps(1))
	checked := 0
	for _, c := range universe {
		if c.NumNodes() >= maxN {
			continue // boundary: survivors over-approximate NN*
		}
		observer.Enumerate(c, func(o *observer.Observer) bool {
			checked++
			inLC := LC.Contains(c, o)
			inStar := star.Contains(c, o)
			if inLC && !inStar {
				t.Fatalf("LC pair pruned from NN*: %v / %v", c, o)
			}
			if !inLC && inStar {
				t.Fatalf("NN* survivor outside LC: %v / %v", c, o)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("interior was empty")
	}
	// The Figure 4 prefix pair (4 nodes, so on the boundary of this
	// universe) is in NN but not in LC; the interior equality above plus
	// the sandwich proves NN* = LC for all 1-location computations with
	// at most 3 nodes.
	fx := paperfig.Figure4()
	if !NN.Contains(fx.Prefix, fx.PrefixObs) || LC.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("Figure 4 prefix must witness NN \\ LC")
	}
}

// The fixpoint engine must prune the Figure 4 pair: in a universe
// consisting of the Figure 4 prefix and its augmentations, the prefix
// pair is in NN but does not survive one round of pruning, because the
// augmentation by a no-op admits no extension.
func TestFixpointPrunesFigure4(t *testing.T) {
	fx := paperfig.Figure4()
	ops := computation.AllOps(1)
	universe := []*computation.Computation{fx.Prefix}
	for _, op := range ops {
		aug, _ := fx.Prefix.Augment(op)
		universe = append(universe, aug)
	}
	star := ConstructibleVersion(NN, universe, ops)
	if !NN.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("precondition: pair in NN")
	}
	if star.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("Figure 4 pair must be pruned from NN*")
	}
	// A last-writer pair on the same computation survives (it is in LC,
	// and LC ⊆ NN*).
	order, err := fx.Prefix.Dag().TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	lw := observer.FromLastWriter(fx.Prefix, order)
	if !star.Contains(fx.Prefix, lw) {
		t.Fatal("last-writer pair must survive pruning")
	}
}

// Lemma 7: a union of constructible models is constructible — checked
// via the Theorem 12 criterion at every pair of SC ∪ Amnesiac over the
// small universe (both operands are constructible; their union must
// extend everywhere even though the operands are disjoint on most
// computations).
func TestLemma7UnionConstructible(t *testing.T) {
	u := Union("SC∪AMNESIAC", SC, Amnesiac)
	ops := computation.AllOps(1)
	for _, c := range smallUniverse(3) {
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if !u.Contains(c, o) {
				return true
			}
			if op, ok := ConstructibleAtAug(u, c, o.Clone(), ops); !ok {
				t.Fatalf("union failed to extend by %s at %v / %v", op, c, o)
			}
			return true
		})
	}
	// Contrast: a union with a NON-constructible operand need not be
	// constructible; NN ∪ Amnesiac still fails at the Figure 4 pair
	// (the amnesiac alternative does not extend the crossing observer).
	fx := paperfig.Figure4()
	bad := Union("NN∪AMNESIAC", NN, Amnesiac)
	if !bad.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("union must contain the NN pair")
	}
	if _, ok := ConstructibleAtAug(bad, fx.Prefix, fx.PrefixObs, ops); ok {
		t.Fatal("union with NN must still fail at the Figure 4 pair")
	}
}

func TestPairSetAccessors(t *testing.T) {
	universe := smallUniverse(2)
	star := ConstructibleVersion(LC, universe, computation.AllOps(1))
	if star.MaxNodes() != 2 {
		t.Fatalf("MaxNodes = %d", star.MaxNodes())
	}
	if star.NumPairs(-1) <= 0 {
		t.Fatal("no pairs survived for LC")
	}
	if star.NumPairs(0) != 1 {
		t.Fatalf("empty computation pairs = %d, want 1", star.NumPairs(0))
	}
	// LC* = LC, so survivors equal base pairs at every size.
	base, survivors := star.SizeCounts()
	if len(base) != 3 || len(survivors) != 3 {
		t.Fatalf("SizeCounts lengths %d, %d; want 3", len(base), len(survivors))
	}
	upTo := 0
	for size := range base {
		upTo += survivors[size]
		if base[size] != survivors[size] || star.NumPairs(size) != upTo {
			t.Fatalf("size %d: base %d, survivors %d, NumPairs %d",
				size, base[size], survivors[size], star.NumPairs(size))
		}
	}
	// Outside-universe computations are reported absent.
	big := computation.New(1)
	for i := 0; i < 6; i++ {
		big.AddNode(computation.N)
	}
	if star.Contains(big, observer.New(big)) {
		t.Fatal("outside-universe pair reported present")
	}
}

// refEntry and refConstructible keep the string-keyed fixpoint that
// ConstructibleVersion replaced, as an independent reference for it:
// computations keyed by String, observers by Key, every base pair
// cloned, and each alive observer of a prefix checked against every
// survivor of each augmentation with Extends.
type refEntry struct {
	c     *computation.Computation
	alive map[string]*observer.Observer // key: observer.Key()
}

func refConstructible(m Model, universe []*computation.Computation, ops []computation.Op) map[string]*refEntry {
	entries := make(map[string]*refEntry, len(universe))
	maxN := 0
	for _, c := range universe {
		maxN = max(maxN, c.NumNodes())
		e := &refEntry{c: c, alive: make(map[string]*observer.Observer)}
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if m.Contains(c, o) {
				e.alive[o.Key()] = o.Clone()
			}
			return true
		})
		entries[c.String()] = e
	}
	augs := make(map[string][]*refEntry)
	for key, e := range entries {
		if e.c.NumNodes() >= maxN {
			continue
		}
		for _, op := range ops {
			aug, _ := e.c.Augment(op)
			ae, ok := entries[aug.String()]
			if !ok {
				panic("reference: universe not closed under augmentation")
			}
			augs[key] = append(augs[key], ae)
		}
	}
	for {
		changed := false
		for key, e := range entries {
			var dead []string
			for okey, o := range e.alive {
				for _, ae := range augs[key] {
					if !refAnyExtension(ae, o) {
						dead = append(dead, okey)
						break
					}
				}
			}
			for _, okey := range dead {
				delete(e.alive, okey)
				changed = true
			}
		}
		if !changed {
			return entries
		}
	}
}

func refAnyExtension(ae *refEntry, o *observer.Observer) bool {
	for _, o2 := range ae.alive {
		if o2.Extends(o) {
			return true
		}
	}
	return false
}

// checkAgainstReference asserts that ConstructibleVersion keeps exactly
// the reference's survivors, through Contains on every pair and
// ContainsAt on every interior pair (the boundary has no positions),
// and returns how many base pairs were pruned.
func checkAgainstReference(t *testing.T, m Model, universe []*computation.Computation, ops []computation.Op) (pruned int) {
	t.Helper()
	star := ConstructibleVersion(m, universe, ops)
	ref := refConstructible(m, universe, ops)
	survivors := 0
	for _, e := range ref {
		survivors += len(e.alive)
	}
	if got := star.NumPairs(-1); got != survivors {
		t.Fatalf("%s: %d survivors, reference keeps %d", star.Name(), got, survivors)
	}
	i := 0 // c's interior position
	for _, c := range universe {
		e := ref[c.String()]
		interior := c.NumNodes() < star.MaxNodes()
		rank := 0
		observer.Enumerate(c, func(o *observer.Observer) bool {
			_, want := e.alive[o.Key()]
			if got := star.Contains(c, o); got != want {
				t.Fatalf("%s: Contains(%v, %v) = %v, reference %v", star.Name(), c, o, got, want)
			}
			if interior {
				if got := star.ContainsAt(i, rank); got != want {
					t.Fatalf("%s: ContainsAt(%d, %d) = %v, reference %v", star.Name(), i, rank, got, want)
				}
			}
			if !want && m.Contains(c, o) {
				pruned++
			}
			rank++
			return true
		})
		if interior {
			i++
		}
	}
	return pruned
}

// augClosure returns root and its augmentations by ops, and theirs, to
// the given depth: a universe closed under augmentation below its
// largest computations.
func augClosure(root *computation.Computation, ops []computation.Op, depth int) []*computation.Computation {
	universe := []*computation.Computation{root}
	frontier := universe
	for ; depth > 0; depth-- {
		var next []*computation.Computation
		for _, c := range frontier {
			for _, op := range ops {
				aug, _ := c.Augment(op)
				next = append(next, aug)
			}
		}
		universe = append(universe, next...)
		frontier = next
	}
	return universe
}

// Differential: the rank-bitset fixpoint keeps exactly the survivors of
// the string-keyed reference, pair for pair, over the whole small
// universe. No enumerable universe this small prunes anything (the
// minimal NN \ LC pair has 4 nodes and sits on the boundary), so this
// checks that nothing is pruned wrongly; the tests below check pruning.
func TestConstructibleVersionMatchesReference(t *testing.T) {
	maxN := 4
	if testing.Short() {
		maxN = 3
	}
	universe := smallUniverse(maxN)
	for _, m := range []Model{NN, NW, WN, LC} {
		checkAgainstReference(t, m, universe, computation.AllOps(1))
	}
}

// Differential where pruning happens, over one and two locations: the
// Figure 4 prefix with its augmentations (one round of pruning), and
// with their augmentations too (pruning must travel two levels). The
// two-location universes are the only pruning coverage of the
// multi-location rank restriction: no enumerable two-location universe
// prunes anything.
func TestConstructibleVersionMatchesReferenceFigure4(t *testing.T) {
	fx := paperfig.Figure4()
	twoLocs := fx.Prefix.Clone()
	twoLocs.AddLoc()
	for _, prefix := range []*computation.Computation{fx.Prefix, twoLocs} {
		ops := computation.AllOps(prefix.NumLocs())
		for depth := 1; depth <= 2; depth++ {
			universe := augClosure(prefix, ops, depth)
			if pruned := checkAgainstReference(t, NN, universe, ops); pruned == 0 {
				t.Fatalf("%d location(s), depth %d: nothing pruned", prefix.NumLocs(), depth)
			}
		}
	}
	// The Figure 4 pair itself, over two locations, is pruned.
	o := observer.New(twoLocs)
	o.Set(0, 2, 1)
	o.Set(0, 3, 0)
	ops := computation.AllOps(2)
	star := ConstructibleVersion(NN, augClosure(twoLocs, ops, 1), ops)
	if !NN.Contains(twoLocs, o) || star.Contains(twoLocs, o) {
		t.Fatal("two-location Figure 4 pair must be in NN and pruned from NN*")
	}
}

// The augmentation link's rank arithmetic equals restricting the
// observer and ranking the restriction, at every observer of every
// augmentation of every two-location computation up to 3 nodes.
func TestAugLinkPrefixRankIsRestriction(t *testing.T) {
	ops := computation.AllOps(2)
	for _, c := range smallUniverseLocs(3, 2) {
		for _, op := range ops {
			aug, _ := c.Augment(op)
			ln := newAugLink(c, aug)
			rank := 0
			observer.Enumerate(aug, func(o *observer.Observer) bool {
				p, ok := o.Restrict(c.NumNodes())
				if !ok {
					t.Fatalf("%v: %v does not restrict to the prefix", aug, o)
				}
				want, ok := observer.Rank(c, p)
				if !ok || ln.prefixRank(rank) != want {
					t.Fatalf("%v: rank %d links to %d, restriction ranks %d", aug, rank, ln.prefixRank(rank), want)
				}
				rank++
				return true
			})
		}
	}
}

// An interior computation listed twice counts once and has the same
// survivors at both positions, and so does a boundary computation.
func TestConstructibleVersionDuplicateComputation(t *testing.T) {
	universe := smallUniverse(2)
	const first = 1 // a 1-node computation
	last := len(universe) - 1
	interior := 0 // the 0- and 1-node computations lead the universe
	for universe[interior].NumNodes() < 2 {
		interior++
	}
	dup := append([]*computation.Computation(nil), universe[:interior]...)
	dup = append(dup, universe[first].Clone()) // interior position `interior`
	dup = append(dup, universe[interior:]...)
	dup = append(dup, universe[last].Clone())
	want := ConstructibleVersion(NN, universe, computation.AllOps(1))
	got := ConstructibleVersion(NN, dup, computation.AllOps(1))
	if got.NumPairs(-1) != want.NumPairs(-1) {
		t.Fatalf("NumPairs with duplicates = %d, want %d", got.NumPairs(-1), want.NumPairs(-1))
	}
	for rank := 0; rank < observer.Count(universe[first], 0); rank++ {
		if got.ContainsAt(interior, rank) != got.ContainsAt(first, rank) {
			t.Fatalf("duplicate differs from its first listing at rank %d", rank)
		}
	}
}

// Pruning cascades through the whole interior: with no pairs at all on
// 3-node computations, every 2-node pair loses its extensions, then
// every 1-node pair, then the empty computation's. Only the boundary
// survives, and the reference agrees pair for pair.
func TestConstructibleVersionCascade(t *testing.T) {
	hole := Func("HOLE", func(c *computation.Computation, _ *observer.Observer) bool { return c.NumNodes() != 3 })
	universe := smallUniverse(4)
	star := ConstructibleVersion(hole, universe, computation.AllOps(1))
	if star.NumPairs(3) != 0 || star.NumPairs(-1) == 0 {
		t.Fatalf("survivors up to 3 nodes: %d, in all: %d; want 0 and the boundary", star.NumPairs(3), star.NumPairs(-1))
	}
	if pruned := checkAgainstReference(t, hole, universe, computation.AllOps(1)); pruned == 0 {
		t.Fatal("nothing pruned")
	}
}

// The documented limit of the augmentation-only fixpoint: a 5-node
// pair in NN ∖ LC that the n = 6 star run keeps at size 5 (EXPERIMENTS.md
// E7). It survives two augmentation levels above it, in the engine and
// in the reference alike, so a universe one or two nodes larger does
// not prune it.
func TestFixpointKeepsFiveNodeNNPair(t *testing.T) {
	c := computation.New(1)
	for _, op := range []computation.Op{computation.N, computation.N, computation.W(0), computation.W(0), computation.W(0)} {
		c.AddNode(op)
	}
	for _, e := range [][2]dag.Node{{0, 3}, {1, 2}} {
		if err := c.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	o := observer.New(c)
	for u, w := range []dag.Node{2, 3, 2, 3, 4} {
		o.Set(0, dag.Node(u), w)
	}
	if got := c.String() + " / " + o.String(); got != "comp(locs=1; 0:N 1:N 2:W(0) 3:W(0) 4:W(0); 0->3 1->2) / Φ(l0: 0→2 1→3 2→2 3→3 4→4)" {
		t.Fatalf("pair renders as %s", got)
	}
	if !NN.Contains(c, o) || LC.Contains(c, o) {
		t.Fatal("the pair must be in NN ∖ LC")
	}
	ops := computation.AllOps(1)
	universe := augClosure(c, ops, 2)
	if !ConstructibleVersion(NN, universe, ops).Contains(c, o) {
		t.Fatal("pruned from NN* by the engine")
	}
	if _, ok := refConstructible(NN, universe, ops)[c.String()].alive[o.Key()]; !ok {
		t.Fatal("pruned from NN* by the reference")
	}
}
