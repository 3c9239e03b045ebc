package dag

import (
	"fmt"
	"math/rand"
)

// This file provides generators for the dag families used by the
// experiments: simple shapes (chains, diamonds, grids), random dags, and
// the fork/join (series-parallel) dags that model Cilk-style
// computations, which are the motivating source of computations in the
// paper (Section 1).

// Chain returns the total order 0 -> 1 -> ... -> n-1.
func Chain(n int) *Dag {
	d := New(n)
	for i := 0; i+1 < n; i++ {
		d.MustAddEdge(Node(i), Node(i+1))
	}
	return d
}

// Antichain returns n nodes with no edges.
func Antichain(n int) *Dag { return New(n) }

// Diamond returns the four-node dag 0 -> {1, 2} -> 3 used in many of the
// paper's examples (Figures 2-4 are variations of it).
func Diamond() *Dag {
	d := New(4)
	d.MustAddEdge(0, 1)
	d.MustAddEdge(0, 2)
	d.MustAddEdge(1, 3)
	d.MustAddEdge(2, 3)
	return d
}

// Fork returns one source fanning out to n-1 leaves.
func Fork(n int) *Dag {
	if n < 1 {
		panic("dag: Fork needs at least one node")
	}
	d := New(n)
	for i := 1; i < n; i++ {
		d.MustAddEdge(0, Node(i))
	}
	return d
}

// Join returns n-1 sources all feeding one sink (node n-1).
func Join(n int) *Dag {
	if n < 1 {
		panic("dag: Join needs at least one node")
	}
	d := New(n)
	for i := 0; i+1 < n; i++ {
		d.MustAddEdge(Node(i), Node(n-1))
	}
	return d
}

// Grid returns an r x c grid dag: node (i,j) -> (i+1,j) and (i,j+1).
// Node (i,j) has id i*c+j.
func Grid(r, c int) *Dag {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("dag: Grid(%d, %d) needs positive dimensions", r, c))
	}
	d := New(r * c)
	id := func(i, j int) Node { return Node(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				d.MustAddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < c {
				d.MustAddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return d
}

// Random returns a random dag on n nodes where each forward pair (i, j),
// i < j, is an edge independently with probability p. All such dags are
// acyclic by construction.
func Random(rng *rand.Rand, n int, p float64) *Dag {
	d := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				d.MustAddEdge(Node(i), Node(j))
			}
		}
	}
	return d
}

// RandomLayered returns a layered random dag: `layers` layers of `width`
// nodes each; each node in layer k gains an edge from each node of layer
// k-1 with probability p, plus one guaranteed predecessor so the dag is
// connected layer to layer.
func RandomLayered(rng *rand.Rand, layers, width int, p float64) *Dag {
	if layers < 1 || width < 1 {
		panic("dag: RandomLayered needs positive dimensions")
	}
	d := New(layers * width)
	id := func(layer, i int) Node { return Node(layer*width + i) }
	for layer := 1; layer < layers; layer++ {
		for i := 0; i < width; i++ {
			connected := false
			for j := 0; j < width; j++ {
				if rng.Float64() < p {
					d.MustAddEdge(id(layer-1, j), id(layer, i))
					connected = true
				}
			}
			if !connected {
				d.MustAddEdge(id(layer-1, rng.Intn(width)), id(layer, i))
			}
		}
	}
	return d
}

// SpawnTree returns the dag of a divide-and-conquer computation that
// recursively spawns two children and syncs: each internal task has a
// "pre" node that forks to two subtrees and a "post" node that joins
// them, modelling the canonical Cilk fib-style computation used in the
// BACKER experiments of [BFJ+96b].
func SpawnTree(levels int) *Dag {
	d := New(0)
	var build func(level int) (in, out Node)
	build = func(level int) (Node, Node) {
		pre := d.AddNode()
		if level <= 1 {
			return pre, pre
		}
		post := d.AddNode()
		li, lo := build(level - 1)
		ri, ro := build(level - 1)
		d.MustAddEdge(pre, li)
		d.MustAddEdge(pre, ri)
		d.MustAddEdge(lo, post)
		d.MustAddEdge(ro, post)
		return pre, post
	}
	build(levels)
	return d
}
