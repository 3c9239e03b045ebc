package dag

import "repro/internal/bitset"

// Closure is a precomputed transitive-closure view of a Dag supporting
// O(1) precedence queries (the relation u ≺ v of Section 2). Its 2n
// reachability sets live in one bitset slab (bitset.NewSlab), so a
// build costs a constant number of allocations however large the dag,
// and none when Build reuses a slab large enough. A Closure is safe for
// concurrent use between builds.
type Closure struct {
	n    int
	desc []bitset.Set // desc[u] = strict descendants of u; its capacity spans the slab
	anc  []bitset.Set // anc[u]  = strict ancestors of u
}

// NewClosure computes the transitive closure of d. It returns ErrCycle
// if d is cyclic.
func NewClosure(d *Dag) (*Closure, error) {
	c := new(Closure)
	if err := c.Build(d); err != nil {
		return nil, err
	}
	return c, nil
}

// Build makes c the transitive closure of d, over c's storage when it
// is large enough. It returns ErrCycle if d is cyclic, and c is then
// unusable until a Build succeeds. Sets obtained from c before the
// call no longer track it.
func (c *Closure) Build(d *Dag) error {
	n := d.NumNodes()
	sets := bitset.ResetSlab(c.desc[:cap(c.desc)], 2*n, n)
	c.n, c.desc, c.anc = n, sets[:n], sets[n:]
	for u := 0; u < n; u++ {
		if err := c.descend(d, Node(u)); err != nil {
			return err
		}
	}
	for u := 0; u < n; u++ {
		c.desc[u].Remove(u) // the mark descend leaves
		c.desc[u].ForEach(func(v int) bool {
			c.anc[v].Add(u)
			return true
		})
	}
	return nil
}

// descend fills desc[u] with u's strict descendants, depth first. While
// u is on the path it marks u ∈ anc[u], and once done u ∈ desc[u], so
// that a node reached again is either a cycle or already complete.
func (c *Closure) descend(d *Dag, u Node) error {
	switch {
	case c.desc[u].Contains(int(u)):
		return nil
	case c.anc[u].Contains(int(u)):
		return ErrCycle
	}
	c.anc[u].Add(int(u))
	for _, v := range d.succs[u] {
		if err := c.descend(d, v); err != nil {
			return err
		}
		c.desc[u].UnionWith(&c.desc[v]) // v itself comes with its mark
	}
	c.anc[u].Remove(int(u))
	c.desc[u].Add(int(u))
	return nil
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
