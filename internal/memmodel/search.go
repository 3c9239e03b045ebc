package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file adapts the decision procedure shared by SC and LC onto the
// unified engine in internal/search: given a computation C, an
// observer function Φ, and a set of locations S, is there a
// topological sort T ∈ TS(C) such that Φ(l, ·) = W_T(l, ·) for every
// l ∈ S? SC asks the question for all locations with a single sort; LC
// asks it per location with independent sorts.
//
// Each tracked location becomes an engine slot and every node's
// candidate set is the singleton {Φ(l, u)}: a node may be appended to
// the partial sort only if, for every location of interest, Φ(l, u)
// equals the last writer already placed (or u itself when u writes l).
// The engine supplies failed-state memoization (bitset-keyed, so the
// common cases stay polynomial in practice even though the problem is
// exponential in the worst case), transitive-closure pruning — which
// subsumes the static prechecks the old private searcher ran (Φ(l,u)
// observing the future, or a second write forced between Φ(l,u) and
// u) — and parallel root splitting.

// SearchOptions tunes the backtracking engine behind the SC decider
// (workers for parallel root splitting, state budget). The zero value
// picks defaults (auto workers, unlimited budget).
type SearchOptions = search.Options

// SearchStats reports the work a decider's search did.
type SearchStats = search.Stats

// searchLastWriter runs the engine on whether some T ∈ TS(c) has
// Φ(l,·) = W_T(l,·) simultaneously for every l in locs; a found result
// carries one witnessing sort.
func searchLastWriter(ctx context.Context, c *computation.Computation, o *observer.Observer, locs []computation.Loc, opts SearchOptions) search.Result {
	return search.RunContext(ctx, lastWriterSpec(c, o, locs), opts)
}

// lastWriterSpec compiles the (C, Φ, S) membership question into an
// engine Spec: each tracked location is a slot and every node's
// candidate set is the singleton {Φ(l, u)}.
func lastWriterSpec(c *computation.Computation, o *observer.Observer, locs []computation.Loc) search.Spec {
	slot := make([]int, c.NumLocs())
	for l := range slot {
		slot[l] = -1
	}
	for i, l := range locs {
		slot[l] = i
	}
	// One backing array for all the singleton candidate sets: the engine
	// retains the slices, so per-(location, node) allocations are wasted.
	n := c.NumNodes()
	vals := make([]dag.Node, len(locs)*n)
	return search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: len(locs),
		WriteSlot: func(u dag.Node) int {
			if op := c.Op(u); op.Kind == computation.Write {
				return slot[op.Loc]
			}
			return -1
		},
		Allowed: func(s int, u dag.Node) ([]dag.Node, bool) {
			i := s*n + int(u)
			vals[i] = o.Get(locs[s], u)
			return vals[i : i+1 : i+1], true
		},
	}
}
