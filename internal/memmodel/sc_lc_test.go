package memmodel

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/paperfig"
)

func randomComputation(rng *rand.Rand, maxNodes, maxLocs int) *computation.Computation {
	n := rng.Intn(maxNodes + 1)
	locs := 1 + rng.Intn(maxLocs)
	g := dag.Random(rng, n, 0.35)
	all := computation.AllOps(locs)
	ops := make([]computation.Op, n)
	for i := range ops {
		ops[i] = all[rng.Intn(len(all))]
	}
	return computation.MustFrom(g, ops, locs)
}

func TestSCAcceptsLastWriterObservers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		c := randomComputation(rng, 7, 2)
		order, err := c.Dag().TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		o := observer.FromLastWriter(c, order)
		if !SC.Contains(c, o) {
			t.Fatalf("SC rejected last-writer observer of %v", c)
		}
		w := decideSC(context.Background(), c, o, SearchOptions{}).Order
		if !c.Dag().IsTopoSort(w) {
			t.Fatalf("no SC witness sort for %v", c)
		}
		// The witness must regenerate the observer exactly.
		if !observer.FromLastWriter(c, w).Equal(o) {
			t.Fatalf("witness %v does not regenerate Φ for %v", w, c)
		}
	}
}

func TestSCRejectsInvalidObserver(t *testing.T) {
	c := computation.New(1)
	a := c.AddNode(computation.W(0))
	b := c.AddNode(computation.R(0))
	c.MustAddEdge(a, b)
	o := observer.New(c)
	o.Set(0, b, b) // read observing itself: invalid
	if SC.Contains(c, o) || LC.Contains(c, o) {
		t.Fatal("models must reject invalid observers")
	}
}

func TestSCRejectsStaleReadAfterWrite(t *testing.T) {
	// W -> R on one location, read observing ⊥: impossible in SC and LC.
	c := computation.New(1)
	a := c.AddNode(computation.W(0))
	b := c.AddNode(computation.R(0))
	c.MustAddEdge(a, b)
	o := observer.New(c) // Φ(0, b) = ⊥
	if SC.Contains(c, o) {
		t.Fatal("SC accepted a stale read past a preceding write")
	}
	if LC.Contains(c, o) {
		t.Fatal("LC accepted a stale read past a preceding write")
	}
	if NN.Contains(c, o) {
		t.Fatal("NN accepted ⊥ after an observed write on the path")
	}
	// Observing the write is fine everywhere.
	o.Set(0, b, a)
	for _, m := range []Model{SC, LC, NN, NW, WN, WW} {
		if !m.Contains(c, o) {
			t.Fatalf("%s rejected the canonical W->R pair", m.Name())
		}
	}
}

func TestDekkerSeparatesSCFromLC(t *testing.T) {
	fx := paperfig.Dekker()
	if err := fx.Obs.Validate(fx.Comp); err != nil {
		t.Fatal(err)
	}
	if SC.Contains(fx.Comp, fx.Obs) {
		t.Fatal("Dekker outcome must not be sequentially consistent")
	}
	if !LC.Contains(fx.Comp, fx.Obs) {
		t.Fatal("Dekker outcome must be location consistent")
	}
	sorts := decideLC(context.Background(), fx.Comp, fx.Obs, SearchOptions{}).LocOrders
	if len(sorts) != 2 {
		t.Fatal("no LC witness sorts for Dekker")
	}
	for l, s := range sorts {
		if !fx.Comp.Dag().IsTopoSort(s) {
			t.Fatalf("location %d witness %v is not a topological sort", l, s)
		}
	}
}

func TestLCAllowsPerLocationSerialization(t *testing.T) {
	// Two disjoint clusters, one per location. Each read observes one of
	// two parallel writes to its location and ⊥ at the other location.
	// LC serializes locations independently, so both outcomes coexist;
	// SC would need the other cluster's writes both before (to be
	// observed) and after (to stay ⊥) — impossible.
	c := computation.New(2)
	wx1 := c.AddNode(computation.W(0))
	wx2 := c.AddNode(computation.W(0))
	rx := c.AddNode(computation.R(0))
	wy1 := c.AddNode(computation.W(1))
	wy2 := c.AddNode(computation.W(1))
	ry := c.AddNode(computation.R(1))
	c.MustAddEdge(wx1, rx)
	c.MustAddEdge(wx2, rx)
	c.MustAddEdge(wy1, ry)
	c.MustAddEdge(wy2, ry)

	o := observer.New(c)
	o.Set(0, rx, wx2) // x serialized wx1 then wx2
	o.Set(1, ry, wy1) // y serialized wy2 then wy1
	// Φ(1, rx) = Φ(0, ry) = ⊥: each reader sorts before the other
	// cluster's writes in that location's serialization.
	if err := o.Validate(c); err != nil {
		t.Fatal(err)
	}
	if !LC.Contains(c, o) {
		t.Fatal("LC must allow independent per-location serializations")
	}
	if SC.Contains(c, o) {
		t.Fatal("SC must reject the ⊥-vs-observed contradiction")
	}
}

func TestLCRejectsUnserializableLocation(t *testing.T) {
	// Figure 4 prefix: two crossing read/write pairs on one location.
	fx := paperfig.Figure4()
	if LC.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("LC must reject the crossing pattern of Figure 4")
	}
	if !NN.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("NN must accept the Figure 4 prefix")
	}
}

// Theorem 19 (pointwise direction used everywhere): every last-writer
// observer is in SC, every per-location-last-writer observer is in LC,
// and SC ⊆ LC.
func TestQuickSCSubsetOfLC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 6, 2)
		if observer.Count(c, 400) >= 400 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if SC.Contains(c, o) && !LC.Contains(c, o) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Brute-force cross-check of the pruned backtracking search: SC
// membership must agree with explicit enumeration of topological sorts.
func TestQuickSCAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 2)
		if observer.Count(c, 300) >= 300 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			brute := false
			c.Dag().EachTopoSort(func(order []dag.Node) bool {
				if observer.FromLastWriter(c, order).Equal(o) {
					brute = true
					return false
				}
				return true
			})
			if SC.Contains(c, o) != brute {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Brute-force cross-check for LC: per-location agreement with explicit
// sort enumeration.
func TestQuickLCAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 2)
		if observer.Count(c, 300) >= 300 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			brute := true
			for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
				foundSort := false
				c.Dag().EachTopoSort(func(order []dag.Node) bool {
					row := observer.LastWriterForLoc(c, order, l)
					match := true
					for u := range row {
						if o.Get(l, dag.Node(u)) != row[u] {
							match = false
							break
						}
					}
					if match {
						foundSort = true
						return false
					}
					return true
				})
				if !foundSort {
					brute = false
					break
				}
			}
			if LC.Contains(c, o) != brute {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyComputationInAllModels(t *testing.T) {
	c := computation.New(1)
	o := observer.New(c)
	for _, m := range []Model{SC, LC, NN, NW, WN, WW, Trivial} {
		if !m.Contains(c, o) {
			t.Fatalf("%s must contain the empty pair (Definition 3)", m.Name())
		}
	}
}
