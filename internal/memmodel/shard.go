package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/observer"
	"repro/internal/search"
)

// Fleet sharding front door: the SC decision is the only NP-hard
// question in the model lattice, so it is the only one worth splitting
// across machines. The shard coordinate is the admissible root
// frontier of the compiled last-writer search — the same split the
// in-process parallel engine fans workers over — and the merge rule
// (lowest witness root wins) is the same rule that makes Workers > 1
// deterministic, so a fleet of shard runs reproduces the single-box
// verdict and witness byte for byte.

// SCShardPlan sizes the shard coordinate space for the SC membership
// question (c, o): the number of admissible roots a coordinator may
// partition into [lo, hi) ranges for SCDecideShard. When the question
// resolves statically without any search (an invalid observer, static
// infeasibility, the empty computation), it returns 0 and the finished
// engine result so planners can short-circuit instead of dispatching
// shards of nothing.
func SCShardPlan(c *computation.Computation, o *observer.Observer) (int, *search.Result) {
	if o.Validate(c) != nil {
		return 0, &search.Result{Exhausted: true, WitnessRoot: -1}
	}
	return search.Frontier(lastWriterSpec(c, o, allLocs(c)))
}

// SCDecideShard is the SC decision restricted to the frontier shard
// [lo, hi) (hi == 0 means "through the end"; 0,0 is the full,
// unsharded run). It returns the raw engine result rather than a
// folded Decision because the fleet merge needs the pieces a Decision
// drops: fold with Result.Verdict() for the three-valued view, read
// WitnessRoot for the lowest-root merge, and Stats.Roots for the whole
// frontier size the shard was cut from.
func SCDecideShard(ctx context.Context, c *computation.Computation, o *observer.Observer, lo, hi int, opts SearchOptions) search.Result {
	if o.Validate(c) != nil {
		return search.Result{Exhausted: true, WitnessRoot: -1}
	}
	opts.RootLo, opts.RootHi = lo, hi
	return searchLastWriter(ctx, c, o, allLocs(c), opts)
}
