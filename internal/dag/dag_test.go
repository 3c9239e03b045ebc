package dag

import (
	"testing"

	"repro/internal/bitset"
)

func TestNewAndAddNode(t *testing.T) {
	d := New(2)
	if d.NumNodes() != 2 || d.NumEdges() != 0 {
		t.Fatalf("New(2): nodes=%d edges=%d", d.NumNodes(), d.NumEdges())
	}
	u := d.AddNode()
	if u != 2 || d.NumNodes() != 3 {
		t.Fatalf("AddNode returned %d, nodes=%d", u, d.NumNodes())
	}
}

func TestAddEdge(t *testing.T) {
	d := New(3)
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Fatal("edge direction wrong")
	}
	if d.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", d.NumEdges())
	}
	// Duplicate is a no-op.
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 1 {
		t.Fatalf("duplicate edge counted: %d", d.NumEdges())
	}
	// Self-loop rejected.
	if err := d.AddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestDegreesAndAdjacency(t *testing.T) {
	d := New(4)
	d.MustAddEdge(0, 1)
	d.MustAddEdge(0, 2)
	d.MustAddEdge(1, 3)
	d.MustAddEdge(2, 3)
	if len(d.Succs(0)) != 2 || d.InDegree(0) != 0 {
		t.Fatalf("node 0 degrees: out=%d in=%d", len(d.Succs(0)), d.InDegree(0))
	}
	if len(d.Succs(3)) != 0 || d.InDegree(3) != 2 {
		t.Fatalf("node 3 degrees: out=%d in=%d", len(d.Succs(3)), d.InDegree(3))
	}
	if got := d.Succs(0); len(got) != 2 {
		t.Fatalf("Succs(0) = %v", got)
	}
	if got := d.Preds(3); len(got) != 2 {
		t.Fatalf("Preds(3) = %v", got)
	}
}

func TestSourcesSinks(t *testing.T) {
	d := Diamond()
	if s := d.Sources(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("Sources = %v", s)
	}
	if s := d.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("Sinks = %v", s)
	}
	a := Antichain(3)
	if len(a.Sources()) != 3 || len(a.Sinks()) != 3 {
		t.Fatal("antichain sources/sinks wrong")
	}
}

func TestEdgesSorted(t *testing.T) {
	d := New(3)
	d.MustAddEdge(1, 2)
	d.MustAddEdge(0, 2)
	d.MustAddEdge(0, 1)
	e := d.Edges()
	want := [][2]Node{{0, 1}, {0, 2}, {1, 2}}
	if len(e) != len(want) {
		t.Fatalf("Edges = %v", e)
	}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", e, want)
		}
	}
}

func TestCloneEqual(t *testing.T) {
	d := Diamond()
	c := d.Clone()
	if !d.Equal(c) || !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	c.MustAddEdge(0, 3)
	if d.Equal(c) {
		t.Fatal("mutation of clone affected equality")
	}
	if d.HasEdge(0, 3) {
		t.Fatal("clone shares storage")
	}
}

func TestEqualDifferentEdgeSets(t *testing.T) {
	a := New(3)
	a.MustAddEdge(0, 1)
	b := New(3)
	b.MustAddEdge(1, 2)
	if a.Equal(b) {
		t.Fatal("different edge sets compare equal")
	}
}

func TestValidateAcyclic(t *testing.T) {
	if err := Diamond().Validate(); err != nil {
		t.Fatal(err)
	}
	cyc := New(3)
	cyc.MustAddEdge(0, 1)
	cyc.MustAddEdge(1, 2)
	cyc.MustAddEdge(2, 0)
	if err := cyc.Validate(); err != ErrCycle {
		t.Fatalf("Validate on cycle = %v, want ErrCycle", err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	d := Diamond()
	keep := bitset.New(4)
	keep.Add(0)
	keep.Add(1)
	keep.Add(3)
	sub, newToOld := d.InducedSubgraph(keep)
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	// Edges inside keep: 0->1, 1->3. Edge 0->2, 2->3 are dropped.
	if sub.NumEdges() != 2 {
		t.Fatalf("sub edges = %d: %v", sub.NumEdges(), sub.Edges())
	}
	if newToOld[0] != 0 || newToOld[1] != 1 || newToOld[2] != 3 {
		t.Fatalf("newToOld = %v", newToOld)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Fatalf("sub edges: %v", sub.Edges())
	}
}

func TestIsDownwardClosed(t *testing.T) {
	d := Diamond()
	set := bitset.New(4)
	if !d.IsDownwardClosed(set) {
		t.Fatal("empty set must be downward closed")
	}
	set.Add(0)
	set.Add(1)
	if !d.IsDownwardClosed(set) {
		t.Fatal("{0,1} is a prefix of the diamond")
	}
	set.Add(3)
	if d.IsDownwardClosed(set) {
		t.Fatal("{0,1,3} misses predecessor 2 of 3")
	}
	set.Add(2)
	if !d.IsDownwardClosed(set) {
		t.Fatal("full set must be downward closed")
	}
}

func TestDownwardClosure(t *testing.T) {
	d := Diamond()
	set := bitset.New(4)
	set.Add(3)
	got := d.DownwardClosure(set)
	if got.Len() != 4 {
		t.Fatalf("closure of {3} = %s", got)
	}
	set2 := bitset.New(4)
	set2.Add(1)
	got2 := d.DownwardClosure(set2)
	if got2.String() != "{0, 1}" {
		t.Fatalf("closure of {1} = %s", got2)
	}
}

func TestAddFinalNode(t *testing.T) {
	d := Diamond()
	f := d.AddFinalNode()
	if f != 4 {
		t.Fatalf("final node id = %d", f)
	}
	for u := Node(0); u < 4; u++ {
		if !d.HasEdge(u, f) {
			t.Fatalf("missing edge %d->final", u)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	d := New(3)
	d.MustAddEdge(0, 2)
	if got := d.String(); got != "dag(n=3; 0->2)" {
		t.Fatalf("String = %q", got)
	}
}
