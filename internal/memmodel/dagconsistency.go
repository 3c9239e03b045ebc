package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
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

// decideQDag is the registry's decider for QDag(p): an Out decision
// carries the violating triple.
func decideQDag(p Predicate) decider {
	return func(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) Decision {
		v, err := findViolation(ctx, p, c, o)
		switch {
		case err != nil:
			return inconclusive(err)
		case v != nil:
			return Decision{Verdict: search.VerdictOut(), Violation: v}
		}
		return Decision{Verdict: search.VerdictIn()}
	}
}

// Violation records a failed instance of Condition 20.1, for error
// reporting in the cmd tools.
type Violation struct {
	Loc     computation.Loc
	U, V, W dag.Node // u ≺ v ≺ w, u may be Bottom
}

// ExplainQDag returns a witness triple violating Condition 20.1 for the
// given predicate, or nil if (c, o) is in the model. The observer must
// be valid for c.
func ExplainQDag(p Predicate, c *computation.Computation, o *observer.Observer) *Violation {
	v, _ := findViolation(context.Background(), p, c, o)
	return v
}

// findViolation is ExplainQDag under a context, polled once per
// (location, node) outer iteration. A non-nil error means the scan was
// stopped before covering every triple.
func findViolation(ctx context.Context, p Predicate, c *computation.Computation, o *observer.Observer) (*Violation, error) {
	cl := c.Closure()
	n := c.NumNodes()
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		for v := dag.Node(0); int(v) < n; v++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			phiV := o.Get(l, v)
			// Candidate u values: ⊥ and every strict ancestor of v.
			for _, u := range candidateUs(cl, v) {
				phiU := o.Get(l, u)
				if phiU == phiV {
					continue // condition cannot fail with Φ(l,v) = Φ(l,u)
				}
				// Any strict descendant w of v with Φ(l,w) = Φ(l,u) and
				// Q(l,u,v,w) is a violation.
				var bad *Violation
				cl.Descendants(v).ForEach(func(wi int) bool {
					w := dag.Node(wi)
					if o.Get(l, w) == phiU && p.Holds(c, l, u, v, w) {
						bad = &Violation{Loc: l, U: u, V: v, W: w}
						return false
					}
					return true
				})
				if bad != nil {
					return bad, nil
				}
			}
		}
	}
	return nil, nil
}

func candidateUs(cl *dag.Closure, v dag.Node) []dag.Node {
	out := []dag.Node{observer.Bottom}
	cl.Ancestors(v).ForEach(func(ui int) bool {
		out = append(out, dag.Node(ui))
		return true
	})
	return out
}
