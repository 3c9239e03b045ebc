package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// SC is sequential consistency (Definition 17): (C, Φ) ∈ SC iff there
// is a single topological sort T ∈ TS(C) whose last-writer function
// agrees with Φ at every location:
//
//	SC = { (C, Φ) : ∃T ∈ TS(C) ∀l ∀u  Φ(l, u) = W_T(l, u) }
//
// Because the definition quantifies over topological sorts of the
// computation rather than interleavings of per-processor instruction
// streams, it generalizes Lamport's processor-centric definition
// (Section 4 of the paper).
//
// The question runs on the unified engine in internal/search. Each
// location becomes an engine slot and every node's candidate set is
// the singleton {Φ(l, u)}: a node may be appended to the partial sort
// only if, for every location, Φ(l, u) equals the last writer already
// placed (or u itself when u writes l). The engine supplies
// failed-state memoization (bitset-keyed, so the common cases stay
// polynomial in practice even though the problem is exponential in the
// worst case), transitive-closure pruning — which subsumes static
// prechecks such as Φ(l,u) observing the future, or a second write
// forced between Φ(l,u) and u — and parallel root splitting.
var SC Model = registered("SC")

// SearchOptions tunes the backtracking engine behind the SC decider
// (workers for parallel root splitting, state budget). The zero value
// runs one worker with no budget.
type SearchOptions = search.Options

// SearchStats reports the work a decider's search did.
type SearchStats = search.Stats

// decideSC searches for the witnessing sort on the engine:
// cancellation, deadline expiry or an exhausted opts.Budget stop it
// with an inconclusive verdict.
func (d *Decider) decideSC(ctx context.Context, opts SearchOptions) Decision {
	res := d.run(ctx, d.lastWriterSpec(), opts)
	return Decision{Verdict: res.Verdict(), Stats: res.Stats, Order: res.Order}
}

// lastWriterSpec is SC's engine question for the pair, over the
// decider's candidate storage.
func (d *Decider) lastWriterSpec() search.Spec {
	d.vals = grow(d.vals, d.numLocs*d.n)
	return lastWriterSpec(d.c, d.o, d.vals)
}

// lastWriterSpec compiles the SC membership question — some
// T ∈ TS(c) with Φ(l,·) = W_T(l,·) at every location l — into an
// engine Spec: each location is a slot and every node's candidate set
// is the singleton {Φ(l, u)}, cut from vals, which must hold
// NumLocs·NumNodes nodes (the engine retains the slices for the run).
func lastWriterSpec(c *computation.Computation, o *observer.Observer, vals []dag.Node) search.Spec {
	n := c.NumNodes()
	return search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: c.NumLocs(),
		WriteSlot: func(u dag.Node) int {
			if op := c.Op(u); op.Kind == computation.Write {
				return int(op.Loc)
			}
			return -1
		},
		Allowed: func(s int, u dag.Node) ([]dag.Node, bool) {
			i := s*n + int(u)
			vals[i] = o.Get(computation.Loc(s), u)
			return vals[i : i+1 : i+1], true
		},
	}
}
