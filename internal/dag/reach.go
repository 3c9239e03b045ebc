package dag

import "repro/internal/bitset"

// Closure is a precomputed transitive-closure view of a Dag supporting
// O(1) precedence queries (the relation u ≺ v of Section 2). Its 2n
// reachability sets live in one bitset slab (bitset.NewSlab), so a
// build costs a constant number of allocations however large the dag.
// A Closure is immutable and safe for concurrent use after
// construction.
type Closure struct {
	n    int
	desc []bitset.Set // desc[u] = strict descendants of u
	anc  []bitset.Set // anc[u]  = strict ancestors of u
}

// NewClosure computes the transitive closure of d. It returns ErrCycle
// if d is cyclic.
func NewClosure(d *Dag) (*Closure, error) {
	order, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	n := d.NumNodes()
	sets := bitset.NewSlab(2*n, n)
	c := &Closure{n: n, desc: sets[:n:n], anc: sets[n:]}
	// Process in reverse topological order: a node's descendants are its
	// direct successors plus their descendants.
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range d.succs[u] {
			c.desc[u].Add(int(v))
			c.desc[u].UnionWith(&c.desc[v])
		}
	}
	for u := 0; u < n; u++ {
		c.desc[u].ForEach(func(v int) bool {
			c.anc[v].Add(u)
			return true
		})
	}
	return c, nil
}

// MustClosure is NewClosure but panics on cyclic input.
func MustClosure(d *Dag) *Closure {
	c, err := NewClosure(d)
	if err != nil {
		panic(err)
	}
	return c
}

// NumNodes returns the number of nodes of the underlying dag.
func (c *Closure) NumNodes() int { return c.n }

// Precedes reports the paper's precedence relation u ≺ v, extended so
// that ⊥ ≺ v for every real node v (and ⊥ ⊀ ⊥).
func (c *Closure) Precedes(u, v Node) bool {
	if v == None {
		return false
	}
	if u == None {
		return true
	}
	return c.desc[u].Contains(int(v))
}

// PrecedesEq reports u ≼ v (precedes or equal), with ⊥ ≼ everything.
func (c *Closure) PrecedesEq(u, v Node) bool {
	if u == None {
		return true
	}
	if v == None {
		return false
	}
	return u == v || c.desc[u].Contains(int(v))
}

// Comparable reports whether u and v are ordered either way (or equal).
func (c *Closure) Comparable(u, v Node) bool {
	return c.PrecedesEq(u, v) || c.PrecedesEq(v, u)
}

// Descendants returns the set of strict descendants of u. The returned
// set is shared; callers must not modify it.
func (c *Closure) Descendants(u Node) *bitset.Set { return &c.desc[u] }

// Ancestors returns the set of strict ancestors of u. The returned set
// is shared; callers must not modify it.
func (c *Closure) Ancestors(u Node) *bitset.Set { return &c.anc[u] }

// TransitiveClosureDag returns a new Dag with an edge (u, v) whenever
// u ≺ v in d.
func TransitiveClosureDag(d *Dag) (*Dag, error) {
	c, err := NewClosure(d)
	if err != nil {
		return nil, err
	}
	out := New(d.NumNodes())
	for u := 0; u < c.n; u++ {
		c.desc[u].ForEach(func(v int) bool {
			out.MustAddEdge(Node(u), Node(v))
			return true
		})
	}
	return out, nil
}

// TransitiveReduction returns the unique minimal dag with the same
// precedence relation as d: edge (u, v) survives iff there is no
// intermediate node w with u ≺ w ≺ v.
func TransitiveReduction(d *Dag) (*Dag, error) {
	c, err := NewClosure(d)
	if err != nil {
		return nil, err
	}
	out := New(d.NumNodes())
	for u := 0; u < d.NumNodes(); u++ {
		for _, v := range d.succs[u] {
			redundant := false
			for _, w := range d.succs[u] {
				if w != v && c.desc[w].Contains(int(v)) {
					redundant = true
					break
				}
			}
			if !redundant {
				out.MustAddEdge(Node(u), v)
			}
		}
	}
	return out, nil
}
