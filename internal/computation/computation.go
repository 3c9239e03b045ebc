// Package computation implements Definition 1 of Frigo & Luchangco
// (SPAA 1998): a computation is a finite dag together with a function
// labelling each node with an abstract memory instruction.
//
// The instruction set is the read-write set of Section 2:
//
//	O = { R(l), W(l) : l ∈ L } ∪ { N }
//
// where N is a no-op (a node that does not access memory but may still
// carry memory semantics through the observer function).
//
// Locations are dense indices 0..NumLocs-1, optionally named. Node
// identity is positional: prefixes, extensions and augmentations all
// share node ids with the parent computation, which is what lets an
// observer function on a prefix be compared with its restriction
// (Section 2, "restriction of op to C′").
package computation

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dag"
)

// Loc identifies a memory location (an element of the set L).
type Loc int32

// OpKind distinguishes the three instruction shapes of the paper.
type OpKind uint8

const (
	// Noop is the paper's N: an instruction that does not access memory.
	Noop OpKind = iota
	// Read is R(l).
	Read
	// Write is W(l).
	Write
)

func (k OpKind) String() string {
	switch k {
	case Noop:
		return "N"
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one abstract instruction: a kind and, for reads and writes, a
// location. The location of a Noop is ignored and normalized to zero.
type Op struct {
	Kind OpKind
	Loc  Loc
}

// N is the no-op instruction.
var N = Op{Kind: Noop}

// R returns the instruction R(l).
func R(l Loc) Op { return Op{Kind: Read, Loc: l} }

// W returns the instruction W(l).
func W(l Loc) Op { return Op{Kind: Write, Loc: l} }

// IsWriteTo reports whether the instruction is W(l).
func (o Op) IsWriteTo(l Loc) bool { return o.Kind == Write && o.Loc == l }

// IsReadOf reports whether the instruction is R(l).
func (o Op) IsReadOf(l Loc) bool { return o.Kind == Read && o.Loc == l }

// Touches reports whether the instruction accesses location l.
func (o Op) Touches(l Loc) bool {
	return o.Kind != Noop && o.Loc == l
}

func (o Op) String() string {
	if o.Kind == Noop {
		return "N"
	}
	return fmt.Sprintf("%s(%d)", o.Kind, o.Loc)
}

// AllOps returns the full instruction set O for a memory with numLocs
// locations: the no-op followed by R(l), W(l) for each location.
// Constructibility quantifies over exactly this set (Theorems 10, 12).
func AllOps(numLocs int) []Op {
	ops := make([]Op, 0, 1+2*numLocs)
	ops = append(ops, N)
	for l := Loc(0); int(l) < numLocs; l++ {
		ops = append(ops, R(l), W(l))
	}
	return ops
}

// Computation is Definition 1: a pair (G, op) of a finite dag and a
// labelling of its nodes with instructions, over a memory with a fixed
// set of locations.
type Computation struct {
	g       *dag.Dag
	ops     []Op
	numLocs int

	closure *dag.Closure // lazily computed; invalidated by mutation
}

// New returns an empty computation over numLocs locations.
func New(numLocs int) *Computation {
	if numLocs < 0 {
		panic(fmt.Sprintf("computation: negative location count %d", numLocs))
	}
	return &Computation{g: dag.New(0), numLocs: numLocs}
}

// From wraps an existing dag and labelling. The ops slice is not copied.
func From(g *dag.Dag, ops []Op, numLocs int) (*Computation, error) {
	if len(ops) != g.NumNodes() {
		return nil, fmt.Errorf("computation: %d ops for %d nodes", len(ops), g.NumNodes())
	}
	c := &Computation{g: g, ops: ops, numLocs: numLocs}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustFrom is From but panics on error.
func MustFrom(g *dag.Dag, ops []Op, numLocs int) *Computation {
	c, err := From(g, ops, numLocs)
	if err != nil {
		panic(err)
	}
	return c
}

// Relabel returns the computation with c's dag and locations and the
// labelling ops, which is not copied. It shares c's dag and c's closure,
// built here if c has none yet, so that sweeps over the labellings of
// one dag validate it and build its closure once: neither c nor the
// result may be mutated afterwards. It panics if ops does not label
// every node with an instruction of O.
func (c *Computation) Relabel(ops []Op) *Computation {
	return c.RelabelInto(new(Computation), ops)
}

// RelabelInto is Relabel over r's storage: it makes r that computation
// and returns it, so that a sweep can reuse one Computation from
// labelling to labelling. Whatever holds r sees the new labelling.
func (c *Computation) RelabelInto(r *Computation, ops []Op) *Computation {
	if len(ops) != len(c.ops) {
		panic(fmt.Sprintf("computation: %d ops for %d nodes", len(ops), len(c.ops)))
	}
	*r = Computation{g: c.g, ops: ops, numLocs: c.numLocs}
	if err := r.validateOps(); err != nil {
		panic(err)
	}
	r.closure = c.Closure()
	return r
}

// Empty reports whether this is the empty computation ε.
func (c *Computation) Empty() bool { return c.g.NumNodes() == 0 }

// NumNodes returns |V_C|.
func (c *Computation) NumNodes() int { return c.g.NumNodes() }

// NumLocs returns |L|.
func (c *Computation) NumLocs() int { return c.numLocs }

// AddLoc extends the location set by one fresh location and returns
// it. Useful for front-ends that allocate locations as the computation
// unfolds (e.g. one result cell per spawned task).
func (c *Computation) AddLoc() Loc {
	c.numLocs++
	return Loc(c.numLocs - 1)
}

// Dag returns the underlying dag G_C. Callers must not mutate it
// directly; use the Computation's mutators so caches stay coherent.
func (c *Computation) Dag() *dag.Dag { return c.g }

// Op returns op_C(u).
func (c *Computation) Op(u dag.Node) Op { return c.ops[u] }

// Ops returns the label slice, shared with the computation.
func (c *Computation) Ops() []Op { return c.ops }

// AddNode appends a node labelled with op and returns its id.
func (c *Computation) AddNode(op Op) dag.Node {
	c.checkOp(op)
	c.closure = nil
	u := c.g.AddNode()
	c.ops = append(c.ops, normalize(op))
	return u
}

// AddEdge inserts the dependency (u, v).
func (c *Computation) AddEdge(u, v dag.Node) error {
	c.closure = nil
	return c.g.AddEdge(u, v)
}

// MustAddEdge is AddEdge but panics on error.
func (c *Computation) MustAddEdge(u, v dag.Node) {
	if err := c.AddEdge(u, v); err != nil {
		panic(err)
	}
}

func normalize(op Op) Op {
	if op.Kind == Noop {
		op.Loc = 0
	}
	return op
}

func (c *Computation) checkOp(op Op) {
	if op.Kind != Noop && (op.Loc < 0 || int(op.Loc) >= c.numLocs) {
		panic(fmt.Sprintf("computation: location %d out of range [0,%d)", op.Loc, c.numLocs))
	}
}

// Validate checks that the dag is acyclic and every label is in O.
func (c *Computation) Validate() error {
	if err := c.validateOps(); err != nil {
		return err
	}
	return c.g.Validate()
}

// validateOps checks that every label is in O.
func (c *Computation) validateOps() error {
	for u, op := range c.ops {
		if op.Kind != Noop && (op.Loc < 0 || int(op.Loc) >= c.numLocs) {
			return fmt.Errorf("computation: node %d has location %d out of range [0,%d)", u, op.Loc, c.numLocs)
		}
		if op.Kind > Write {
			return fmt.Errorf("computation: node %d has unknown op kind %d", u, op.Kind)
		}
	}
	return nil
}

// Closure returns the precedence relation of the computation, computed
// once and cached until the next mutation. Panics on cyclic graphs.
func (c *Computation) Closure() *dag.Closure {
	if c.closure == nil {
		c.closure = dag.MustClosure(c.g)
	}
	return c.closure
}

// Clone returns a deep copy.
func (c *Computation) Clone() *Computation {
	return &Computation{
		g:       c.g.Clone(),
		ops:     append([]Op(nil), c.ops...),
		numLocs: c.numLocs,
	}
}

// Equal reports structural equality: same location count, same dag, and
// same labelling.
func (c *Computation) Equal(o *Computation) bool {
	if c.numLocs != o.numLocs || len(c.ops) != len(o.ops) {
		return false
	}
	for u := range c.ops {
		if c.ops[u] != o.ops[u] {
			return false
		}
	}
	return c.g.Equal(o.g)
}

// Writers returns the nodes labelled W(l), in increasing order.
func (c *Computation) Writers(l Loc) []dag.Node {
	var out []dag.Node
	for u, op := range c.ops {
		if op.IsWriteTo(l) {
			out = append(out, dag.Node(u))
		}
	}
	return out
}

// Readers returns the nodes labelled R(l), in increasing order.
func (c *Computation) Readers(l Loc) []dag.Node {
	var out []dag.Node
	for u, op := range c.ops {
		if op.IsReadOf(l) {
			out = append(out, dag.Node(u))
		}
	}
	return out
}

// Prefix returns the subcomputation induced by the downward-closed node
// set, together with the map from new ids to original ids. It panics if
// set is not downward closed (a prefix in the paper's sense keeps all
// edges into retained nodes, which forces downward closure).
func (c *Computation) Prefix(set *bitset.Set) (*Computation, []dag.Node) {
	if !c.g.IsDownwardClosed(set) {
		panic("computation: Prefix on a non-downward-closed node set")
	}
	sub, newToOld := c.g.InducedSubgraph(set)
	ops := make([]Op, len(newToOld))
	for nu, ou := range newToOld {
		ops[nu] = c.ops[ou]
	}
	return &Computation{g: sub, ops: ops, numLocs: c.numLocs}, newToOld
}

// Extend returns a new computation that extends c by one node labelled
// op, with edges from each node of preds to the new node. The receiver
// is unchanged; node ids of c are preserved, so c is a prefix of the
// result (Section 2, "extension of C′ by o").
func (c *Computation) Extend(op Op, preds []dag.Node) (*Computation, dag.Node) {
	out := c.Clone()
	u := out.AddNode(op)
	for _, p := range preds {
		out.MustAddEdge(p, u)
	}
	return out, u
}

// Augment returns aug_o(C) of Definition 11: c extended by one final
// node labelled op that succeeds every existing node. The new node's id
// is returned alongside.
func (c *Computation) Augment(op Op) (*Computation, dag.Node) {
	out := c.Clone()
	out.checkOp(op)
	out.closure = nil
	f := out.g.AddFinalNode()
	out.ops = append(out.ops, normalize(op))
	return out, f
}

// IsPrefixOfExtension reports whether c equals the restriction of o to
// the first c.NumNodes() node ids and o has no edge from a node ≥
// c.NumNodes() into the shared range. Under the package convention that
// extensions append nodes, this is exactly "c is a prefix of o".
func (c *Computation) IsPrefixOfExtension(o *Computation) bool {
	n := c.NumNodes()
	if o.NumNodes() < n || c.numLocs != o.numLocs {
		return false
	}
	for u := 0; u < n; u++ {
		if c.ops[u] != o.ops[u] {
			return false
		}
	}
	for _, e := range o.g.Edges() {
		u, v := e[0], e[1]
		if int(v) < n {
			// Edge into the shared range must exist in c, and its source
			// must be in range (guaranteed if it exists in c).
			if int(u) >= n || !c.g.HasEdge(u, v) {
				return false
			}
		}
	}
	for _, e := range c.g.Edges() {
		if !o.g.HasEdge(e[0], e[1]) {
			return false
		}
	}
	return true
}

// IsRelaxationOf reports whether c is a relaxation of o: identical
// nodes and labels, and c's edges a subset of o's (Definition 5 domain).
func (c *Computation) IsRelaxationOf(o *Computation) bool {
	if c.numLocs != o.numLocs || len(c.ops) != len(o.ops) {
		return false
	}
	for u := range c.ops {
		if c.ops[u] != o.ops[u] {
			return false
		}
	}
	return c.g.IsRelaxationOf(o.g)
}

// EachRelaxation enumerates every relaxation of c (2^|E| of them),
// passing each to fn as a fresh computation. Stops early if fn returns
// false; returns the count visited.
func (c *Computation) EachRelaxation(fn func(r *Computation) bool) int {
	return c.g.EachRelaxation(func(rg *dag.Dag) bool {
		r := &Computation{g: rg, ops: c.ops, numLocs: c.numLocs}
		return fn(r)
	})
}

// EachPrefix enumerates every prefix of c, passing the prefix and its
// new-to-old node map to fn. Stops early if fn returns false; returns
// the count visited.
func (c *Computation) EachPrefix(fn func(p *Computation, newToOld []dag.Node) bool) int {
	return c.g.EachPrefixSet(func(set *bitset.Set) bool {
		p, m := c.Prefix(set)
		return fn(p, m)
	})
}

// String renders the computation compactly, e.g.
// "comp(locs=1; 0:W(0) 1:R(0); 0->1)".
func (c *Computation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "comp(locs=%d;", c.numLocs)
	for u, op := range c.ops {
		fmt.Fprintf(&b, " %d:%s", u, op)
	}
	b.WriteByte(';')
	for _, e := range c.g.Edges() {
		fmt.Fprintf(&b, " %d->%d", e[0], e[1])
	}
	b.WriteByte(')')
	return b.String()
}
