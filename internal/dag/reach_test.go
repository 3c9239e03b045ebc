package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClosureDiamond(t *testing.T) {
	c := MustClosure(Diamond())
	cases := []struct {
		u, v Node
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {0, 3, true},
		{1, 3, true}, {2, 3, true},
		{1, 2, false}, {2, 1, false},
		{3, 0, false}, {1, 0, false},
		{0, 0, false}, // strict precedence
	}
	for _, tc := range cases {
		if got := c.Precedes(tc.u, tc.v); got != tc.want {
			t.Errorf("Precedes(%d, %d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestClosureBottom(t *testing.T) {
	c := MustClosure(Diamond())
	for u := Node(0); u < 4; u++ {
		if !c.Precedes(None, u) {
			t.Fatalf("⊥ must precede node %d", u)
		}
		if c.Precedes(u, None) {
			t.Fatalf("node %d must not precede ⊥", u)
		}
		if !c.PrecedesEq(None, u) {
			t.Fatalf("⊥ ≼ %d must hold", u)
		}
	}
	if c.Precedes(None, None) {
		t.Fatal("⊥ ≺ ⊥ must not hold")
	}
	if !c.PrecedesEq(None, None) {
		t.Fatal("⊥ ≼ ⊥ must hold")
	}
}

func TestClosurePrecedesEqComparable(t *testing.T) {
	c := MustClosure(Diamond())
	if !c.PrecedesEq(1, 1) {
		t.Fatal("u ≼ u must hold")
	}
	if !c.Comparable(0, 3) || c.Comparable(1, 2) {
		t.Fatal("Comparable wrong on diamond")
	}
}

func TestClosureCycle(t *testing.T) {
	d := New(2)
	d.MustAddEdge(0, 1)
	d.MustAddEdge(1, 0)
	if _, err := NewClosure(d); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestDescendantsAncestors(t *testing.T) {
	c := MustClosure(Chain(4))
	if got := c.Descendants(0).String(); got != "{1, 2, 3}" {
		t.Fatalf("Descendants(0) = %s", got)
	}
	if got := c.Ancestors(3).String(); got != "{0, 1, 2}" {
		t.Fatalf("Ancestors(3) = %s", got)
	}
	if !c.Descendants(3).Empty() || !c.Ancestors(0).Empty() {
		t.Fatal("endpoints of chain have wrong closures")
	}
}

// Property: Precedes(u, v) agrees with a DFS reachability computation.
func TestQuickClosureAgainstDFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		d := Random(rng, n, 0.3)
		c := MustClosure(d)

		var reach func(u, v Node, seen map[Node]bool) bool
		reach = func(u, v Node, seen map[Node]bool) bool {
			for _, w := range d.Succs(u) {
				if w == v {
					return true
				}
				if !seen[w] {
					seen[w] = true
					if reach(w, v, seen) {
						return true
					}
				}
			}
			return false
		}
		for u := Node(0); int(u) < n; u++ {
			for v := Node(0); int(v) < n; v++ {
				if u == v {
					continue
				}
				if c.Precedes(u, v) != reach(u, v, map[Node]bool{}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestClosureBuildReuse: one Dag, Reset and refilled, and one Closure,
// rebuilt in place, follow a shuffled sequence of random dags that grow
// and shrink across the 64-node word boundary, with node ids permuted so
// that they are not topological. Every build must give exactly the
// reachability of a naive fixpoint, a cyclic dag must fail with
// ErrCycle and leave the next build sound, and a warm rebuild of the
// same dag must allocate nothing.
func TestClosureBuildReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sizes []int
	for _, n := range []int{0, 1, 2, 5, 9, 63, 64, 65, 100, 130} {
		sizes = append(sizes, n, n, n)
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	var d Dag
	var c Closure
	for i, n := range sizes {
		perm := rng.Perm(n)
		src := Random(rng, n, 4/float64(n+1))
		d.Reset(n)
		for _, e := range src.Edges() {
			d.MustAddEdge(Node(perm[e[0]]), Node(perm[e[1]]))
		}
		if i%4 == 3 && src.NumEdges() > 0 {
			// Close a cycle through the first edge, then build again
			// over what the failed build left.
			e := src.Edges()[0]
			d.MustAddEdge(Node(perm[e[1]]), Node(perm[e[0]]))
			if err := c.Build(&d); err != ErrCycle {
				t.Fatalf("n=%d with a cycle: Build returned %v, want ErrCycle", n, err)
			}
			d.Reset(n)
			for _, e := range src.Edges() {
				d.MustAddEdge(Node(perm[e[0]]), Node(perm[e[1]]))
			}
		}
		if err := c.Build(&d); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		reach := make([][]bool, n)
		for u := range reach {
			reach[u] = make([]bool, n)
			for _, v := range d.Succs(Node(u)) {
				reach[u][v] = true
			}
		}
		for k := 0; k < n; k++ {
			for u := 0; u < n; u++ {
				for v := 0; reach[u][k] && v < n; v++ {
					reach[u][v] = reach[u][v] || reach[k][v]
				}
			}
		}
		if c.NumNodes() != n {
			t.Fatalf("n=%d: closure of %d nodes", n, c.NumNodes())
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if c.Precedes(Node(u), Node(v)) != reach[u][v] || c.Ancestors(Node(v)).Contains(u) != reach[u][v] {
					t.Fatalf("n=%d: %d ≺ %d is %v, ancestors say %v; want %v",
						n, u, v, c.Precedes(Node(u), Node(v)), c.Ancestors(Node(v)).Contains(u), reach[u][v])
				}
			}
		}
		if allocs := testing.AllocsPerRun(3, func() { c.Build(&d) }); allocs != 0 {
			t.Fatalf("n=%d: %v allocs per warm rebuild, want 0", n, allocs)
		}
	}
}
