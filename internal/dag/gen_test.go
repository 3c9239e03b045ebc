package dag

import (
	"math/rand"
	"testing"
)

func TestChain(t *testing.T) {
	d := Chain(4)
	if d.NumNodes() != 4 || d.NumEdges() != 3 {
		t.Fatalf("chain: %v", d)
	}
	if Chain(1).NumEdges() != 0 || Chain(0).NumNodes() != 0 {
		t.Fatal("degenerate chains wrong")
	}
}

func TestForkJoinShapes(t *testing.T) {
	f := Fork(4)
	if len(f.Sources()) != 1 || len(f.Sinks()) != 3 {
		t.Fatalf("fork: sources=%v sinks=%v", f.Sources(), f.Sinks())
	}
	j := Join(4)
	if len(j.Sources()) != 3 || len(j.Sinks()) != 1 {
		t.Fatalf("join: sources=%v sinks=%v", j.Sources(), j.Sinks())
	}
}

func TestGrid(t *testing.T) {
	d := Grid(3, 4)
	if d.NumNodes() != 12 {
		t.Fatalf("grid nodes = %d", d.NumNodes())
	}
	// Edge count: r*(c-1) horizontal + (r-1)*c vertical = 9 + 8 = 17.
	if d.NumEdges() != 17 {
		t.Fatalf("grid edges = %d", d.NumEdges())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Sources()) != 1 || len(d.Sinks()) != 1 {
		t.Fatal("grid must have a single source and sink")
	}
}

func TestRandomAcyclicAndDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Random(rng, 30, 1.0)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 30*29/2 {
		t.Fatalf("p=1 dag edges = %d", d.NumEdges())
	}
	e := Random(rng, 30, 0.0)
	if e.NumEdges() != 0 {
		t.Fatalf("p=0 dag edges = %d", e.NumEdges())
	}
}

func TestRandomLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := RandomLayered(rng, 4, 3, 0.5)
	if d.NumNodes() != 12 {
		t.Fatalf("nodes = %d", d.NumNodes())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every non-first-layer node has at least one predecessor.
	for u := 3; u < 12; u++ {
		if d.InDegree(Node(u)) == 0 {
			t.Fatalf("layered node %d has no predecessor", u)
		}
	}
}

func TestSpawnTree(t *testing.T) {
	d := SpawnTree(3)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// levels=3: root pre+post, two level-2 children (pre+post each),
	// four level-1 leaves (pre only) = 2 + 4 + 4 = 10 nodes.
	if d.NumNodes() != 10 {
		t.Fatalf("spawn tree nodes = %d, want 10", d.NumNodes())
	}
	if len(d.Sources()) != 1 || len(d.Sinks()) != 1 {
		t.Fatalf("spawn tree: sources=%v sinks=%v", d.Sources(), d.Sinks())
	}
}

func TestGeneratorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Fork(0) },
		func() { Join(0) },
		func() { Grid(0, 3) },
		func() { RandomLayered(rand.New(rand.NewSource(1)), 0, 1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
