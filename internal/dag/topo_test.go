package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTopoSortChain(t *testing.T) {
	d := Chain(5)
	order, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range order {
		if u != Node(i) {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	d := New(2)
	d.MustAddEdge(0, 1)
	d.MustAddEdge(1, 0)
	if _, err := d.TopoSort(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	d := Diamond()
	a, _ := d.TopoSort()
	b, _ := d.TopoSort()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoSort not deterministic")
		}
	}
	// Lowest-id tie break: diamond gives 0,1,2,3.
	want := []Node{0, 1, 2, 3}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("order = %v, want %v", a, want)
		}
	}
}

func TestIsTopoSort(t *testing.T) {
	d := Diamond()
	if !d.IsTopoSort([]Node{0, 1, 2, 3}) || !d.IsTopoSort([]Node{0, 2, 1, 3}) {
		t.Fatal("valid sorts rejected")
	}
	if d.IsTopoSort([]Node{1, 0, 2, 3}) {
		t.Fatal("edge-violating order accepted")
	}
	if d.IsTopoSort([]Node{0, 1, 2}) {
		t.Fatal("short order accepted")
	}
	if d.IsTopoSort([]Node{0, 1, 1, 3}) {
		t.Fatal("non-permutation accepted")
	}
}

func TestEachTopoSortCounts(t *testing.T) {
	cases := []struct {
		name string
		d    *Dag
		want int
	}{
		{"chain5", Chain(5), 1},
		{"antichain3", Antichain(3), 6},  // 3! orders
		{"antichain4", Antichain(4), 24}, // 4!
		{"diamond", Diamond(), 2},        // 0 {1,2} 3
		{"fork3", Fork(3), 2},            // root then 2 leaves in either order
		{"empty", New(0), 1},             // one empty sort
	}
	for _, c := range cases {
		got := c.d.EachTopoSort(func(order []Node) bool {
			if !c.d.IsTopoSort(order) {
				t.Fatalf("%s: enumerated invalid sort %v", c.name, order)
			}
			return true
		})
		if got != c.want {
			t.Errorf("%s: %d sorts, want %d", c.name, got, c.want)
		}
	}
}

func TestEachTopoSortDistinct(t *testing.T) {
	d := Grid(2, 3)
	seen := make(map[string]bool)
	d.EachTopoSort(func(order []Node) bool {
		key := ""
		for _, u := range order {
			key += string(rune('a' + u))
		}
		if seen[key] {
			t.Fatalf("duplicate sort %v", order)
		}
		seen[key] = true
		return true
	})
}

func TestEachTopoSortEarlyStop(t *testing.T) {
	d := Antichain(5) // 120 sorts
	n := 0
	visited := d.EachTopoSort(func([]Node) bool {
		n++
		return n < 7
	})
	if visited != 7 || n != 7 {
		t.Fatalf("visited = %d, n = %d, want 7", visited, n)
	}
}

func TestEachTopoSortCyclic(t *testing.T) {
	d := New(2)
	d.MustAddEdge(0, 1)
	d.MustAddEdge(1, 0)
	if got := d.EachTopoSort(func([]Node) bool { return true }); got != 0 {
		t.Fatalf("cyclic graph yielded %d sorts", got)
	}
}

// Property: every enumerated sort of a random dag is valid, the first
// Kahn sort is among them, and the count matches a brute-force
// permutation filter for small n.
func TestQuickTopoSortEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		d := Random(rng, n, 0.4)
		valid := true
		count := d.EachTopoSort(func(order []Node) bool {
			if !d.IsTopoSort(order) {
				valid = false
				return false
			}
			return true
		})
		if !valid {
			return false
		}
		// Brute force over all permutations.
		perm := make([]Node, n)
		for i := range perm {
			perm[i] = Node(i)
		}
		brute := 0
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				if d.IsTopoSort(perm) {
					brute++
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		return count == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
