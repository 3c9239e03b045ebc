package computation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/dag"
)

// diamondWRRW builds the diamond computation 0:W(0) -> {1:R(0), 2:R(0)} -> 3:W(0).
func diamondWRRW() *Computation {
	c := New(1)
	a := c.AddNode(W(0))
	b := c.AddNode(R(0))
	d := c.AddNode(R(0))
	e := c.AddNode(W(0))
	c.MustAddEdge(a, b)
	c.MustAddEdge(a, d)
	c.MustAddEdge(b, e)
	c.MustAddEdge(d, e)
	return c
}

func TestOpConstructorsAndString(t *testing.T) {
	if N.String() != "N" || R(2).String() != "R(2)" || W(0).String() != "W(0)" {
		t.Fatalf("op strings: %s %s %s", N, R(2), W(0))
	}
	if !W(1).IsWriteTo(1) || W(1).IsWriteTo(0) || W(1).IsReadOf(1) {
		t.Fatal("IsWriteTo wrong")
	}
	if !R(1).IsReadOf(1) || R(1).Touches(0) || !R(1).Touches(1) {
		t.Fatal("IsReadOf/Touches wrong")
	}
	if N.Touches(0) {
		t.Fatal("noop touches a location")
	}
}

func TestAllOps(t *testing.T) {
	ops := AllOps(2)
	want := []Op{N, R(0), W(0), R(1), W(1)}
	if len(ops) != len(want) {
		t.Fatalf("AllOps(2) = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("AllOps(2) = %v, want %v", ops, want)
		}
	}
	if len(AllOps(0)) != 1 {
		t.Fatal("AllOps(0) should be just {N}")
	}
}

func TestEmptyComputation(t *testing.T) {
	c := New(3)
	if !c.Empty() || c.NumNodes() != 0 || c.NumLocs() != 3 {
		t.Fatal("empty computation wrong")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeEdgeOp(t *testing.T) {
	c := diamondWRRW()
	if c.NumNodes() != 4 {
		t.Fatalf("nodes = %d", c.NumNodes())
	}
	if c.Op(0) != W(0) || c.Op(1) != R(0) || c.Op(3) != W(0) {
		t.Fatal("ops wrong")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeLocationRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).AddNode(W(1))
}

func TestNoopLocNormalized(t *testing.T) {
	c := New(2)
	u := c.AddNode(Op{Kind: Noop, Loc: 7}) // out-of-range loc on a noop is fine
	if c.Op(u).Loc != 0 {
		t.Fatalf("noop loc = %d, want 0", c.Op(u).Loc)
	}
}

func TestFromValidation(t *testing.T) {
	g := dag.Chain(2)
	if _, err := From(g, []Op{W(0)}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := From(dag.Chain(2), []Op{W(0), R(5)}, 1); err == nil {
		t.Fatal("out-of-range location accepted")
	}
	cyc := dag.New(2)
	cyc.MustAddEdge(0, 1)
	cyc.MustAddEdge(1, 0)
	if _, err := From(cyc, []Op{N, N}, 1); err == nil {
		t.Fatal("cyclic dag accepted")
	}
	if _, err := From(dag.Chain(2), []Op{W(0), R(0)}, 1); err != nil {
		t.Fatal(err)
	}
}

// Relabel shares the dag and the closure, keeps the new labels, and
// rejects labellings From would reject.
func TestRelabel(t *testing.T) {
	c := diamondWRRW()
	ops := []Op{R(0), W(0), N, W(0)}
	r := c.Relabel(ops)
	if r.Dag() != c.Dag() || r.Closure() != c.Closure() {
		t.Fatal("Relabel must share the dag and its closure")
	}
	if r.NumLocs() != 1 || &r.Ops()[0] != &ops[0] || r.String() != "comp(locs=1; 0:R(0) 1:W(0) 2:N 3:W(0); 0->1 0->2 1->3 2->3)" {
		t.Fatalf("relabelled: %v", r)
	}
	if c.String() != diamondWRRW().String() {
		t.Fatalf("Relabel changed its receiver: %v", c)
	}
	for _, bad := range [][]Op{{W(0)}, {N, N, N, R(1)}, {N, N, N, {Kind: 7}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relabel(%v) accepted", bad)
				}
			}()
			c.Relabel(bad)
		}()
	}
}

func TestClosureCacheInvalidation(t *testing.T) {
	c := New(1)
	a := c.AddNode(W(0))
	b := c.AddNode(R(0))
	cl := c.Closure()
	if cl.Precedes(a, b) {
		t.Fatal("no edge yet")
	}
	c.MustAddEdge(a, b)
	if !c.Closure().Precedes(a, b) {
		t.Fatal("closure cache not invalidated by AddEdge")
	}
	u := c.AddNode(N)
	if c.Closure().NumNodes() != 3 {
		t.Fatal("closure cache not invalidated by AddNode")
	}
	_ = u
}

func TestCloneEqualIndependent(t *testing.T) {
	c := diamondWRRW()
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	d.AddNode(N)
	if c.Equal(d) || c.NumNodes() != 4 {
		t.Fatal("clone shares state")
	}
	e := diamondWRRW()
	e.ops[1] = W(0)
	if c.Equal(e) {
		t.Fatal("different labels compare equal")
	}
}

func TestWritersReaders(t *testing.T) {
	c := diamondWRRW()
	ws := c.Writers(0)
	if len(ws) != 2 || ws[0] != 0 || ws[1] != 3 {
		t.Fatalf("Writers = %v", ws)
	}
	rs := c.Readers(0)
	if len(rs) != 2 || rs[0] != 1 || rs[1] != 2 {
		t.Fatalf("Readers = %v", rs)
	}
}

func TestPrefix(t *testing.T) {
	c := diamondWRRW()
	set := bitset.New(4)
	set.Add(0)
	set.Add(1)
	p, m := c.Prefix(set)
	if p.NumNodes() != 2 || p.Op(0) != W(0) || p.Op(1) != R(0) {
		t.Fatalf("prefix = %v", p)
	}
	if !p.Dag().HasEdge(0, 1) {
		t.Fatal("prefix lost internal edge")
	}
	if m[0] != 0 || m[1] != 1 {
		t.Fatalf("mapping = %v", m)
	}
}

func TestPrefixNonClosedPanics(t *testing.T) {
	c := diamondWRRW()
	set := bitset.New(4)
	set.Add(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Prefix(set)
}

func TestExtend(t *testing.T) {
	c := diamondWRRW()
	ext, u := c.Extend(R(0), []dag.Node{1, 2})
	if c.NumNodes() != 4 {
		t.Fatal("Extend mutated receiver")
	}
	if ext.NumNodes() != 5 || u != 4 || ext.Op(u) != R(0) {
		t.Fatalf("extension wrong: %v", ext)
	}
	if !ext.Dag().HasEdge(1, 4) || !ext.Dag().HasEdge(2, 4) || ext.Dag().HasEdge(0, 4) {
		t.Fatal("extension edges wrong")
	}
	if !c.IsPrefixOfExtension(ext) {
		t.Fatal("receiver must be a prefix of its extension")
	}
}

func TestAugment(t *testing.T) {
	c := diamondWRRW()
	aug, f := c.Augment(N)
	if aug.NumNodes() != 5 || f != 4 {
		t.Fatalf("augmented = %v", aug)
	}
	for u := dag.Node(0); u < 4; u++ {
		if !aug.Dag().HasEdge(u, f) {
			t.Fatalf("missing edge %d->final", u)
		}
	}
	if !c.IsPrefixOfExtension(aug) {
		t.Fatal("C must be a prefix of aug_o(C)")
	}
	// Every extension of C by o is a relaxation of aug_o(C) (used in
	// the proof of Theorem 12).
	ext, _ := c.Extend(N, []dag.Node{3})
	if !ext.IsRelaxationOf(aug) {
		t.Fatal("extension must relax the augmentation")
	}
}

func TestIsPrefixOfExtensionRejects(t *testing.T) {
	c := diamondWRRW()
	// Different op in shared range.
	bad := c.Clone()
	bad.ops[2] = W(0)
	ext, _ := bad.Extend(N, nil)
	if c.IsPrefixOfExtension(ext) {
		t.Fatal("label mismatch accepted")
	}
	// Extension with a missing internal edge is not an extension of c.
	d := New(1)
	d.AddNode(W(0))
	d.AddNode(R(0))
	e := New(1)
	e.AddNode(W(0))
	e.AddNode(R(0))
	e.MustAddEdge(0, 1)
	if e.IsPrefixOfExtension(d) {
		t.Fatal("missing edge accepted")
	}
	// Extra internal edge in the extension breaks prefix-ness too.
	if d.IsPrefixOfExtension(e) {
		t.Fatal("extra edge within shared range accepted")
	}
}

func TestIsRelaxationOf(t *testing.T) {
	c := diamondWRRW()
	r := c.Clone()
	// Remove an edge by rebuilding.
	r2 := New(1)
	for u := 0; u < 4; u++ {
		r2.AddNode(c.Op(dag.Node(u)))
	}
	r2.MustAddEdge(0, 1)
	if !r2.IsRelaxationOf(c) {
		t.Fatal("edge subset rejected")
	}
	if !c.IsRelaxationOf(c) {
		t.Fatal("self relaxation rejected")
	}
	_ = r
	r2.ops[0] = R(0)
	if r2.IsRelaxationOf(c) {
		t.Fatal("label change accepted as relaxation")
	}
}

func TestEachRelaxationAndPrefix(t *testing.T) {
	c := diamondWRRW()
	nRelax := c.EachRelaxation(func(r *Computation) bool {
		if !r.IsRelaxationOf(c) {
			t.Fatalf("bad relaxation %v", r)
		}
		return true
	})
	if nRelax != 16 {
		t.Fatalf("relaxations = %d, want 16", nRelax)
	}
	nPrefix := c.EachPrefix(func(p *Computation, m []dag.Node) bool {
		if len(m) != p.NumNodes() {
			t.Fatal("mapping length mismatch")
		}
		return true
	})
	if nPrefix != 6 {
		t.Fatalf("prefixes = %d, want 6", nPrefix)
	}
}

func TestAddLoc(t *testing.T) {
	c := New(1)
	l := c.AddLoc()
	if l != 1 || c.NumLocs() != 2 {
		t.Fatalf("AddLoc = %d, NumLocs = %d", l, c.NumLocs())
	}
	// The new location is usable immediately.
	c.AddNode(W(l))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	c := New(1)
	a := c.AddNode(W(0))
	b := c.AddNode(R(0))
	c.MustAddEdge(a, b)
	want := "comp(locs=1; 0:W(0) 1:R(0); 0->1)"
	if got := c.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// Property: Extend preserves prefix-ness and Augment dominates every
// same-op extension as a relaxation, for random computations.
func TestQuickExtendAugment(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(7)
		locs := 1 + rng.Intn(2)
		g := dag.Random(rng, n, 0.3)
		ops := make([]Op, n)
		all := AllOps(locs)
		for i := range ops {
			ops[i] = all[rng.Intn(len(all))]
		}
		c := MustFrom(g, ops, locs)
		op := all[rng.Intn(len(all))]

		var preds []dag.Node
		for u := 0; u < n; u++ {
			if rng.Intn(2) == 0 {
				preds = append(preds, dag.Node(u))
			}
		}
		ext, _ := c.Extend(op, preds)
		aug, _ := c.Augment(op)
		return c.IsPrefixOfExtension(ext) &&
			c.IsPrefixOfExtension(aug) &&
			ext.IsRelaxationOf(aug) &&
			ext.Validate() == nil && aug.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
