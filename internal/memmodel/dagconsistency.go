package memmodel

import (
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// Predicate is the parameter Q of Definition 20. Holds is evaluated on
// triples u ≺ v ≺ w; u may be observer.Bottom (the paper extends ⊥ ≺ x
// to every node x), while v and w are always real nodes.
type Predicate struct {
	Name  string
	Holds func(c *computation.Computation, l computation.Loc, u, v, w dag.Node) bool
}

// The four named predicates of Section 5. The first letter constrains
// u, the second constrains v; "W" requires a write to l, "N" means "do
// not care". Strengthening Q weakens the model, so NN (no conditions)
// gives the strongest dag-consistent model (Theorem 21) and WW (both
// writes) the weakest of the four.
var (
	// PredNN imposes no side conditions: NN(l, u, v, w) = true.
	PredNN = Predicate{
		Name: "NN",
		Holds: func(*computation.Computation, computation.Loc, dag.Node, dag.Node, dag.Node) bool {
			return true
		},
	}

	// PredNW requires the middle node to write: op(v) = W(l).
	PredNW = Predicate{
		Name: "NW",
		Holds: func(c *computation.Computation, l computation.Loc, _, v, _ dag.Node) bool {
			return c.Op(v).IsWriteTo(l)
		},
	}

	// PredWN requires the first node to write: op(u) = W(l). The ⊥ node
	// is not a write, so triples with u = ⊥ are exempt.
	PredWN = Predicate{
		Name: "WN",
		Holds: func(c *computation.Computation, l computation.Loc, u, _, _ dag.Node) bool {
			return u != observer.Bottom && c.Op(u).IsWriteTo(l)
		},
	}

	// PredWW requires both: WW = WN ∧ NW. This is the original dag
	// consistency of [BFJ+96b].
	PredWW = Predicate{
		Name: "WW",
		Holds: func(c *computation.Computation, l computation.Loc, u, v, _ dag.Node) bool {
			return u != observer.Bottom && c.Op(u).IsWriteTo(l) && c.Op(v).IsWriteTo(l)
		},
	}
)

// QDag returns the Q-dag consistency model of Definition 20 for the
// given predicate: the set of pairs (C, Φ) with Φ an observer function
// for C such that
//
//	∀l ∀u, v, w ∈ V ∪ {⊥}:  u ≺ v ≺ w ∧ Q(l, u, v, w) ∧
//	    Φ(l, u) = Φ(l, w)  ⇒  Φ(l, v) = Φ(l, u).
//
// Intuitively: a node sandwiched between two nodes that observe the
// same write (under the side condition Q) must observe that write too.
func QDag(p Predicate) Model {
	return Func(p.Name, func(c *computation.Computation, o *observer.Observer) bool {
		return ExplainQDag(p, c, o) == nil
	})
}

// The four models of Figure 1, registered as QDag(PredNN) … QDag(PredWW).
// NN is the strongest dag-consistent model and is not constructible
// (Figure 4); its constructible version is LC (Theorem 23). WN is the
// dag consistency of [BFJ+96a], WW that of [BFJ+96b].
var (
	NN Model = registered("NN")
	NW Model = registered("NW")
	WN Model = registered("WN")
	WW Model = registered("WW")
)

// Violation records a failed instance of Condition 20.1, for error
// reporting in the cmd tools.
type Violation struct {
	Loc     computation.Loc
	U, V, W dag.Node // u ≺ v ≺ w, u may be Bottom
}

// ExplainQDag returns a witness triple violating Condition 20.1 for the
// given predicate, or nil if (c, o) is in the model. The observer must
// be valid for c. The Decider's fused scan finds the same triple.
func ExplainQDag(p Predicate, c *computation.Computation, o *observer.Observer) *Violation {
	cl := c.Closure()
	n := c.NumNodes()
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		for v := dag.Node(0); int(v) < n; v++ {
			phiV := o.Get(l, v)
			// Candidate u values: ⊥, then every strict ancestor of v.
			var bad *Violation
			scan := func(u dag.Node) bool {
				phiU := o.Get(l, u)
				if phiU == phiV {
					return true // condition cannot fail with Φ(l,v) = Φ(l,u)
				}
				// Any strict descendant w of v with Φ(l,w) = Φ(l,u) and
				// Q(l,u,v,w) is a violation.
				cl.Descendants(v).ForEach(func(wi int) bool {
					w := dag.Node(wi)
					if o.Get(l, w) == phiU && p.Holds(c, l, u, v, w) {
						bad = &Violation{Loc: l, U: u, V: v, W: w}
						return false
					}
					return true
				})
				return bad == nil
			}
			if scan(observer.Bottom) {
				cl.Ancestors(v).ForEach(func(ui int) bool { return scan(dag.Node(ui)) })
			}
			if bad != nil {
				return bad
			}
		}
	}
	return nil
}
