package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// Fleet sharding front door. SC and TSO are the registry's two models
// decided by a search on the engine (every other model has a
// polynomial decider), but only SC has a shard plan, so the fleet
// splits only SC across machines and POST /v1/batch refuses a shard
// range for any other model; TSO's search could take root ranges the
// same way, yet goes to one replica whole. The shard coordinate is the
// admissible root frontier of the compiled last-writer search — the
// same split the in-process parallel engine fans workers over — and
// the merge rule (lowest witness root wins) is the same rule that makes
// Workers > 1 deterministic, so a fleet of shard runs reproduces the
// single-box verdict and witness byte for byte.

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
	return search.Frontier(lastWriterSpec(c, o, make([]dag.Node, c.NumLocs()*c.NumNodes())))
}

// SCDecideShard is the SC decision restricted to the frontier shard
// [lo, hi) (hi == 0 means "through the end"; 0,0 is the full,
// unsharded run). It returns the raw engine result rather than a
// folded Decision because the fleet merge needs the pieces a Decision
// drops: fold with Result.Verdict() for the three-valued view, read
// WitnessRoot for the lowest-root merge, and Stats.Roots for the whole
// frontier size the shard was cut from.
func SCDecideShard(ctx context.Context, c *computation.Computation, o *observer.Observer, lo, hi int, opts SearchOptions) search.Result {
	var d Decider
	d.Reset(c)
	d.Observe(o)
	return d.DecideSCShard(ctx, lo, hi, opts)
}

// DecideSCShard is SCDecideShard for the observed pair, run on the
// decider's Runner and candidate storage, so a caller deciding the
// pair's other models too validates it once.
func (d *Decider) DecideSCShard(ctx context.Context, lo, hi int, opts SearchOptions) search.Result {
	if !d.valid {
		return search.Result{Exhausted: true, WitnessRoot: -1}
	}
	opts.RootLo, opts.RootHi = lo, hi
	return d.run(ctx, d.lastWriterSpec(), opts)
}
