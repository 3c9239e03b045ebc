// Package dag implements the directed-acyclic-graph substrate underlying
// computations (Definition 1 of Frigo & Luchangco, "Computation-Centric
// Memory Models", SPAA 1998).
//
// A Dag is a mutable multigraph-free directed graph over nodes 0..n-1.
// Acyclicity is not enforced on every AddEdge (that would be quadratic);
// callers construct graphs and then rely on Validate, TopoSort, or the
// reachability Closure, all of which detect cycles.
//
// The package also provides the dag-theoretic notions used throughout the
// paper: prefixes (downward-closed subgraphs), relaxations (edge subsets),
// topological sorts and their exhaustive enumeration, and a library of
// generators for the dag shapes used in the experiments.
package dag

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
)

// Node identifies a vertex of a Dag. Nodes are dense indices 0..n-1.
type Node int32

// None is the sentinel "no node" value; the paper writes it as ⊥ (bottom).
const None Node = -1

// ErrCycle is reported by operations that require acyclicity.
var ErrCycle = errors.New("dag: graph contains a cycle")

// Dag is a directed graph intended to be acyclic. The zero value is an
// empty graph ready to use.
type Dag struct {
	succs [][]Node
	preds [][]Node
	edges int
}

// New returns a Dag with n nodes and no edges.
func New(n int) *Dag {
	if n < 0 {
		panic(fmt.Sprintf("dag: negative node count %d", n))
	}
	return &Dag{succs: make([][]Node, n), preds: make([][]Node, n)}
}

// Reset empties d to n nodes and no edges, keeping its adjacency
// storage for the edges added next. Slices that Succs and Preds
// returned before the call no longer track d.
func (d *Dag) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("dag: negative node count %d", n))
	}
	d.succs, d.preds, d.edges = resetAdjacency(d.succs, n), resetAdjacency(d.preds, n), 0
}

// resetAdjacency returns adj resized to n empty lists, over the lists'
// backing arrays, including those past len(adj).
func resetAdjacency(adj [][]Node, n int) [][]Node {
	if adj = adj[:cap(adj)]; len(adj) < n {
		adj = append(adj, make([][]Node, n-len(adj))...)
	}
	adj = adj[:n]
	for u := range adj {
		adj[u] = adj[u][:0]
	}
	return adj
}

// NumNodes returns the number of nodes.
func (d *Dag) NumNodes() int { return len(d.succs) }

// NumEdges returns the number of edges.
func (d *Dag) NumEdges() int { return d.edges }

// AddNode appends a fresh node with no edges and returns its id.
func (d *Dag) AddNode() Node {
	d.succs = append(d.succs, nil)
	d.preds = append(d.preds, nil)
	return Node(len(d.succs) - 1)
}

func (d *Dag) checkNode(u Node) {
	if u < 0 || int(u) >= len(d.succs) {
		panic(fmt.Sprintf("dag: node %d out of range [0,%d)", u, len(d.succs)))
	}
}

// AddEdge inserts the edge (u, v). Self-loops are rejected; duplicate
// edges are ignored. Cycle creation is not checked here (see Validate).
func (d *Dag) AddEdge(u, v Node) error {
	d.checkNode(u)
	d.checkNode(v)
	if u == v {
		return fmt.Errorf("dag: self-loop on node %d", u)
	}
	if d.HasEdge(u, v) {
		return nil
	}
	d.succs[u] = append(d.succs[u], v)
	d.preds[v] = append(d.preds[v], u)
	d.edges++
	return nil
}

// MustAddEdge is AddEdge but panics on error; convenient in generators
// and tests where the edge is known to be well formed.
func (d *Dag) MustAddEdge(u, v Node) {
	if err := d.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the edge (u, v) is present.
func (d *Dag) HasEdge(u, v Node) bool {
	d.checkNode(u)
	d.checkNode(v)
	for _, w := range d.succs[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Succs returns the direct successors of u. The slice is shared with the
// Dag and must not be modified.
func (d *Dag) Succs(u Node) []Node {
	d.checkNode(u)
	return d.succs[u]
}

// Preds returns the direct predecessors of u. The slice is shared with
// the Dag and must not be modified.
func (d *Dag) Preds(u Node) []Node {
	d.checkNode(u)
	return d.preds[u]
}

// InDegree returns the number of direct predecessors of u.
func (d *Dag) InDegree(u Node) int { return len(d.Preds(u)) }

// Sources returns the nodes with no predecessors, in increasing order.
func (d *Dag) Sources() []Node {
	var out []Node
	for u := range d.preds {
		if len(d.preds[u]) == 0 {
			out = append(out, Node(u))
		}
	}
	return out
}

// Sinks returns the nodes with no successors, in increasing order.
func (d *Dag) Sinks() []Node {
	var out []Node
	for u := range d.succs {
		if len(d.succs[u]) == 0 {
			out = append(out, Node(u))
		}
	}
	return out
}

// Edges returns all edges sorted lexicographically.
func (d *Dag) Edges() [][2]Node {
	out := make([][2]Node, 0, d.edges)
	for u := range d.succs {
		for _, v := range d.succs[u] {
			out = append(out, [2]Node{Node(u), v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy of the graph.
func (d *Dag) Clone() *Dag {
	c := &Dag{
		succs: make([][]Node, len(d.succs)),
		preds: make([][]Node, len(d.preds)),
		edges: d.edges,
	}
	for u := range d.succs {
		c.succs[u] = append([]Node(nil), d.succs[u]...)
		c.preds[u] = append([]Node(nil), d.preds[u]...)
	}
	return c
}

// Equal reports whether d and o have the same node count and edge set.
func (d *Dag) Equal(o *Dag) bool {
	if d.NumNodes() != o.NumNodes() || d.NumEdges() != o.NumEdges() {
		return false
	}
	for u := range d.succs {
		for _, v := range d.succs[u] {
			if !o.HasEdge(Node(u), v) {
				return false
			}
		}
	}
	return true
}

// Validate returns ErrCycle if the graph has a cycle, nil otherwise.
func (d *Dag) Validate() error {
	if _, err := d.TopoSort(); err != nil {
		return err
	}
	return nil
}

// InducedSubgraph returns the subgraph induced by keep (nodes renumbered
// densely in increasing original order) together with the map from new
// node ids to original ids.
func (d *Dag) InducedSubgraph(keep *bitset.Set) (*Dag, []Node) {
	if keep.Cap() != d.NumNodes() {
		panic("dag: InducedSubgraph bitset capacity mismatch")
	}
	oldToNew := make([]Node, d.NumNodes())
	for i := range oldToNew {
		oldToNew[i] = None
	}
	var newToOld []Node
	keep.ForEach(func(i int) bool {
		oldToNew[i] = Node(len(newToOld))
		newToOld = append(newToOld, Node(i))
		return true
	})
	sub := New(len(newToOld))
	for _, u := range newToOld {
		for _, v := range d.succs[u] {
			if oldToNew[v] != None {
				sub.MustAddEdge(oldToNew[u], oldToNew[v])
			}
		}
	}
	return sub, newToOld
}

// IsDownwardClosed reports whether the node set contains every
// predecessor of each of its members, i.e. whether it induces a prefix
// of the dag in the sense of Section 2 of the paper.
func (d *Dag) IsDownwardClosed(set *bitset.Set) bool {
	if set.Cap() != d.NumNodes() {
		panic("dag: IsDownwardClosed bitset capacity mismatch")
	}
	ok := true
	set.ForEach(func(i int) bool {
		for _, p := range d.preds[i] {
			if !set.Contains(int(p)) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// DownwardClosure returns the smallest downward-closed superset of set.
func (d *Dag) DownwardClosure(set *bitset.Set) *bitset.Set {
	out := set.Clone()
	stack := set.Elements()
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.preds[u] {
			if !out.Contains(int(p)) {
				out.Add(int(p))
				stack = append(stack, int(p))
			}
		}
	}
	return out
}

// AddFinalNode appends a node that succeeds every existing node, as in
// the augmented computation of Definition 11, and returns its id.
func (d *Dag) AddFinalNode() Node {
	f := d.AddNode()
	for u := Node(0); u < f; u++ {
		d.MustAddEdge(u, f)
	}
	return f
}

// String renders the dag as "dag(n=3; 0->1 0->2)".
func (d *Dag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dag(n=%d;", d.NumNodes())
	for _, e := range d.Edges() {
		fmt.Fprintf(&b, " %d->%d", e[0], e[1])
	}
	b.WriteByte(')')
	return b.String()
}
