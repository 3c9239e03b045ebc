package memmodel

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// lcContainsBySearch is the exponential topological-sort search for LC
// membership: the engine run one location at a time, with that
// location as its only slot.
func lcContainsBySearch(c *computation.Computation, o *observer.Observer) bool {
	if o.Validate(c) != nil {
		return false
	}
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		spec := search.Spec{
			Dag:      c.Dag(),
			NumSlots: 1,
			WriteSlot: func(u dag.Node) int {
				if c.Op(u).IsWriteTo(l) {
					return 0
				}
				return -1
			},
			Allowed: func(_ int, u dag.Node) ([]dag.Node, bool) { return []dag.Node{o.Get(l, u)}, true },
		}
		if !search.Run(spec, SearchOptions{}).Found {
			return false
		}
	}
	return true
}

// The polynomial SerializeLoc reduction must agree exactly with the
// exponential topological-sort search on the full observer universe of
// random small computations. This is the correctness anchor for the
// fast LC decision procedure.
func TestQuickSerializeAgainstSearch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 6, 2)
		if observer.Count(c, 400) >= 400 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			fast := LC.Contains(c, o)
			slow := lcContainsBySearch(c, o)
			if fast != slow {
				t.Logf("disagreement on %v / %v: fast=%v slow=%v", c, o, fast, slow)
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The witness sorts produced by SerializeLoc must actually realize the
// pinned last-writer rows.
func TestQuickSerializeWitnessRealizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 7, 2)
		if observer.Count(c, 300) >= 300 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			d, err := DecideByName(context.Background(), "LC", c, o, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sorts := d.LocOrders
			if sorts == nil {
				return true
			}
			for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
				if !c.Dag().IsTopoSort(sorts[l]) {
					ok = false
					return false
				}
				row := observer.LastWriterForLoc(c, sorts[l], l)
				for u := range row {
					if o.Get(l, dag.Node(u)) != row[u] {
						ok = false
						return false
					}
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A read may observe a write it is parallel to even when another write
// precedes it; observing ⊥ past that write is infeasible.
func TestSerializeLocParallelWrite(t *testing.T) {
	c := computation.New(1)
	w1 := c.AddNode(computation.W(0))
	w2 := c.AddNode(computation.W(0))
	r := c.AddNode(computation.R(0))
	c.MustAddEdge(w1, r)
	o := observer.New(c)
	o.Set(0, r, w2)
	order, ok := SerializeLoc(c, 0, o)
	if !ok {
		t.Fatal("feasible observation rejected")
	}
	if row := observer.LastWriterForLoc(c, order, 0); row[r] != w2 {
		t.Fatalf("witness row = %v", row)
	}
	o.Set(0, r, observer.Bottom)
	if _, ok := SerializeLoc(c, 0, o); ok {
		t.Fatal("⊥ past a preceding write accepted")
	}
}

func TestSerializeLocDegenerate(t *testing.T) {
	// No writes at all: every node observes ⊥.
	c := computation.New(1)
	c.AddNode(computation.R(0))
	if _, ok := SerializeLoc(c, 0, observer.New(c)); !ok {
		t.Fatal("⊥ observations without writes rejected")
	}
	// A lone write observes itself.
	c2 := computation.New(1)
	c2.AddNode(computation.W(0))
	if order, ok := SerializeLoc(c2, 0, observer.New(c2)); !ok || len(order) != 1 {
		t.Fatalf("lone write: order %v, ok %v", order, ok)
	}
	// Empty computation.
	c3 := computation.New(1)
	if order, ok := SerializeLoc(c3, 0, observer.New(c3)); !ok || len(order) != 0 {
		t.Fatal("empty computation must serialize trivially")
	}
}

// ExplainLC on the Figure 4 crossing produces the two-write cycle: each
// read forces the other branch's write first.
func TestExplainLCFigure4Cycle(t *testing.T) {
	c := computation.New(1)
	a := c.AddNode(computation.W(0))
	b := c.AddNode(computation.W(0))
	r1 := c.AddNode(computation.R(0))
	r2 := c.AddNode(computation.R(0))
	c.MustAddEdge(a, r1)
	c.MustAddEdge(b, r2)
	o := observer.New(c)
	o.Set(0, r1, b)
	o.Set(0, r2, a)
	e := ExplainLC(c, o)
	if e == nil || len(e.Cycle) != 2 {
		t.Fatalf("explanation = %v, want a 2-write cycle", e)
	}
	if e.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestExplainLCDirect(t *testing.T) {
	c := computation.New(1)
	w := c.AddNode(computation.W(0))
	r := c.AddNode(computation.R(0))
	c.MustAddEdge(w, r)
	o := observer.New(c) // stale ⊥ read
	e := ExplainLC(c, o)
	if e == nil || e.Direct == "" {
		t.Fatalf("expected a direct contradiction, got %v", e)
	}
	// Membership means no explanation.
	o.Set(0, r, w)
	if e := ExplainLC(c, o); e != nil {
		t.Fatalf("unexpected explanation for an LC pair: %v", e)
	}
	var nilExpl *LCExplanation
	if nilExpl.String() != "in LC" {
		t.Fatal("nil explanation rendering")
	}
}

// Property: ExplainLC is a complete and sound proof system — it finds
// an explanation exactly when LC membership fails.
func TestQuickExplainLCCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 6, 2)
		if observer.Count(c, 250) >= 250 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			inLC := LC.Contains(c, o)
			expl := ExplainLC(c, o)
			if inLC != (expl == nil) {
				t.Logf("mismatch on %v / %v: inLC=%v expl=%v", c, o, inLC, expl)
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Large-scale smoke: LC membership on a few-hundred-node computation
// decided in polynomial time (this hung for the exponential search).
func TestSerializeLocScales(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := dag.SpawnTree(8) // 382 nodes
	all := computation.AllOps(2)
	ops := make([]computation.Op, g.NumNodes())
	for i := range ops {
		ops[i] = all[rng.Intn(len(all))]
	}
	c := computation.MustFrom(g, ops, 2)
	order, err := c.Dag().TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	o := observer.FromLastWriter(c, order)
	if !LC.Contains(c, o) {
		t.Fatal("last-writer observer must be in LC")
	}
}
