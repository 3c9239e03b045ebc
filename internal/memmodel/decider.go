package memmodel

import (
	"context"
	"math/bits"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file is the decision context. A Decider holds one pair (c, o)
// and what its models' decisions share, each built at most once per
// pair on buffers reused from pair to pair: the validation, the
// writers per location, the LC and happens-before cores, one fused
// scan of the Q-dag triples, and a search.Runner for SC and TSO.
//
// Decide serves the per-request frontends: each model's Decision, with
// its witness, stats and run events. Pattern and Masked give one
// membership bit per model and no witnesses, for observers the caller
// trusts valid: the Δ* fixpoint's enumerated members and the star's LC
// comparison use them. Sweep, which the pattern sweeps use, decides a
// whole computation's observers at once, for every labelling of its
// dag with its writers (sweepwalk.go): every bit but TSO once per
// observer, TSO's search once per observer and effective fence set. It
// falls back on Masked.
// Only these take three inclusions that spare the engine,
// since a Decision's SC and TSO rows carry their search's stats:
//
//   - SC ⊆ LC by definition: an SC witness sort restricted to one
//     location serializes it. (The converse is what the experiments
//     check; nothing here assumes it.)
//   - With one location, SC and LC are the same quantifier, so Masked
//     searches for SC only with two or more locations, and Sweep reads
//     SC and LC from c's topological sorts without a search.
//   - SC ⊆ TSO, so TSO is searched only outside SC.
//
// TestPatternMatchesContains pins the bits under every mask to the
// Decide verdicts over every pair of up to four nodes at one location
// and up to three at two; TestSweepMatchesMasked pins Sweep to Masked.

// Pattern bits: a model's bit is its registry row index. The
// hardware/language models (TSO, RA, CAUSAL) extend the original six
// Figure-1 bits without renumbering them, so persisted counts stay
// comparable.
const (
	PatternSC uint16 = 1 << iota
	PatternLC
	PatternNN
	PatternNW
	PatternWN
	PatternWW
	PatternTSO
	PatternRA
	PatternCAUSAL
	// PatternAll is the pattern of a pair in every Figure-1 model (the
	// paper's lattice; the extension bits are deliberately excluded so
	// Figure-1 census comparisons keep their meaning).
	PatternAll = PatternSC | PatternLC | PatternNN | PatternNW | PatternWN | PatternWW
)

const (
	patternEvery = uint16(1)<<len(registry) - 1                  // every registered model
	patternQDag  = PatternNN | PatternNW | PatternWN | PatternWW // the Q-dag models
)

// Decider is the decision context of one pair at a time. Reset points
// it at a computation; Observe at an observer of it, for Decide;
// Pattern and Masked each at the observer they are given; and Sweep at
// a computation and then at each of its observers in turn. Its buffers
// grow to the largest pair seen and are reused. Decisions returned by
// Decide share no storage with it. Not safe for concurrent use; the
// zero value is ready.
type Decider struct {
	c       *computation.Computation
	cl      *dag.Closure
	n       int
	numLocs int
	writers [][]dag.Node // per location, once listed for c
	topo    []dag.Node   // c's topological sort, for LC witnesses
	o       *observer.Observer

	valid   bool                     // o is an observer function for c (Observe)
	hbState int8                     // hb: 0 not yet built, 1 acyclic, -1 cyclic
	qAsk    uint16                   // the Q-dag bits Decide's first scan decides
	qDone   uint16                   // the Q-dag bits decided for o
	qViol   uint16                   // the decided Q-dag bits o violates
	qAt     [len(registry)]Violation // by bit: a violated Q-dag bit's first triple

	lc     lcCore
	hb     hbCore
	tso    *tsoCore   // TSO's storage, from its first decision on
	vals   []dag.Node // SC's singleton candidate sets
	scr    []int      // LC witness scratch
	runner *search.Runner
	sweep  *sweepWalk // Sweep's state
}

// PatternDecider is the Decider under the name the sweeps know it by.
type PatternDecider = Decider

// NewPatternDecider returns a Decider for Pattern, Masked and Sweep.
func NewPatternDecider() *PatternDecider { return new(Decider) }

// Reset points the decider at a computation.
func (d *Decider) Reset(c *computation.Computation) {
	d.c, d.cl = c, c.Closure()
	d.n, d.numLocs = c.NumNodes(), c.NumLocs()
	d.writers, d.topo = d.writers[:0], nil
	d.observe(nil)
}

// Observe points the decider at the pair (c, o) for Decide, where c is
// the Reset computation, and validates o.
func (d *Decider) Observe(o *observer.Observer) {
	d.observe(o)
	d.valid, d.qAsk = o.Validate(d.c) == nil, patternQDag
}

func (d *Decider) observe(o *observer.Observer) {
	d.o, d.valid, d.hbState = o, false, 0
	d.qDone, d.qViol = 0, 0
}

// Decide answers (c, o) ∈ model for one of the ModelNames, spelled
// exactly, under ctx. Engine models label their engine's run events on
// opts.Recorder with the model name; the polynomial ones get an
// explicit RunStart/RunEnd pair, so recorded sessions see one run per
// decision either way. An observer that fails validation is
// definitively Out (it is not an observer function for c at all). An
// unknown model name is an error naming the registered models. The
// first Q-dag model asked decides all four in one scan.
func (d *Decider) Decide(ctx context.Context, model string, opts SearchOptions) (Decision, error) {
	e, err := Lookup(model)
	if err != nil || e.name != model {
		return Decision{}, unknownModel(model)
	}
	opts.Recorder = obs.WithRun(opts.Recorder, e.name)
	if !e.engine {
		obs.Emit(opts.Recorder, obs.Event{Kind: obs.RunStart, Total: 1})
	}
	dec := Decision{Verdict: search.VerdictOut()}
	if d.valid {
		dec = d.decide(ctx, e.patternBit(), opts)
	}
	dec.Model = e.name
	if !e.engine {
		obs.Emit(opts.Recorder, obs.Event{Kind: obs.RunEnd, Str: dec.Verdict.String()})
	}
	return dec, nil
}

// decide runs the decider of the model whose pattern bit is bit. The
// switch, rather than a function in the registry row, keeps a one-shot
// Decider on its caller's stack.
func (d *Decider) decide(ctx context.Context, bit uint16, opts SearchOptions) Decision {
	switch bit {
	case PatternSC:
		return d.decideSC(ctx, opts)
	case PatternLC:
		return d.decideLC(ctx)
	case PatternTSO:
		return d.decideTSO(ctx, opts)
	case PatternRA, PatternCAUSAL:
		if !d.hbAcyclic() {
			return Decision{Verdict: search.VerdictOut()}
		}
		if bit == PatternRA {
			return Decision{Verdict: d.hb.ra(ctx, d.c, d.o, d.locWriters())}
		}
		return Decision{Verdict: d.hb.causal(ctx, d.c, d.o, d.locWriters())}
	}
	return d.decideQDag(ctx, bit)
}

// Pattern returns the membership pattern of (c, o) for a valid
// observer o of the Reset computation: every registered model's bit.
func (d *Decider) Pattern(o *observer.Observer) uint16 {
	return d.Masked(o, patternEvery)
}

// Masked returns Pattern(o) & mask, deciding only what the requested
// bits need: LC when SC, LC or TSO is asked for, and SC behind it when
// SC or TSO is, the fused Q-dag scan when a Q-dag bit is, and the
// happens-before build when RA, CAUSAL or TSO is, each of those three
// only when its own bit is. A bit never depends on which other bits
// were asked for: TSO's SC shortcut is taken whenever LC and SC ran,
// and they run whenever TSO is asked for.
func (d *Decider) Masked(o *observer.Observer, mask uint16) uint16 {
	const (
		scNeeded = PatternSC | PatternTSO
		lcNeeded = PatternLC | scNeeded
	)
	d.observe(o)
	bg := context.Background()
	var pattern uint16
	if mask&patternQDag != 0 {
		d.scanQDag(bg, mask)
		pattern = patternQDag &^ d.qViol
	}
	lc := mask&lcNeeded != 0
	for l := 0; lc && l < d.numLocs; l++ {
		_, lc = d.lcLoc(computation.Loc(l))
	}
	if lc {
		pattern |= PatternLC
	}
	if lc && mask&scNeeded != 0 && (d.numLocs <= 1 || d.run(bg, d.lastWriterSpec(), SearchOptions{}).Found) {
		pattern |= PatternSC
	}
	pattern, search := d.tail(pattern, mask)
	if search && d.tsoIn(d.c.Ops()) {
		pattern |= PatternTSO
	}
	return pattern
}

// tail completes the pattern of the observed pair, which must hold its
// SC bit whenever mask asks for SC or TSO, with the RA and CAUSAL bits
// of mask, and with TSO inside SC (SC ⊆ TSO), and returns it under
// mask. search reports whether TSO is still to be decided by tsoIn: it
// is asked for, the pair is outside SC, and it passes TSO's checks
// before the search. Everything tail reads depends only on which nodes
// write which location, so it holds for every labelling with c's
// writers, and only tsoIn tells them apart.
func (d *Decider) tail(pattern, mask uint16) (_ uint16, search bool) {
	bg := context.Background()
	if pattern&PatternSC != 0 {
		pattern |= PatternTSO // SC ⊆ TSO
	} else if mask&PatternTSO != 0 {
		search = d.tsoFeasible()
	}
	if mask&(PatternRA|PatternCAUSAL) != 0 && d.hbAcyclic() {
		if mask&PatternRA != 0 && d.hb.ra(bg, d.c, d.o, d.locWriters()).In() {
			pattern |= PatternRA
		}
		if mask&PatternCAUSAL != 0 && d.hb.causal(bg, d.c, d.o, d.locWriters()).In() {
			pattern |= PatternCAUSAL
		}
	}
	return pattern & mask, search
}

// tsoIn runs the TSO search of the observed pair under ops, a labelling
// of c's dag with c's writers, once tail has asked for it.
func (d *Decider) tsoIn(ops []computation.Op) bool {
	return d.run(context.Background(), d.tso.events(d.c, d.cl, d.o, ops), SearchOptions{}).Found
}

// locWriters returns c's writers per location, listing them on the
// first call for the computation.
func (d *Decider) locWriters() [][]dag.Node {
	if len(d.writers) != d.numLocs {
		d.writers = writersByLoc(d.writers, d.c)
	}
	return d.writers
}

// hbAcyclic reports whether the pair's happens-before relation is
// acyclic, building it on the first call for the pair. The extension
// models share it, and tsoCore.events requires it.
func (d *Decider) hbAcyclic() bool {
	if d.hbState == 0 {
		d.hbState = -1
		if d.hb.build(d.c, d.cl, d.o) {
			d.hbState = 1
		}
	}
	return d.hbState > 0
}

// run runs spec on the decider's Runner.
func (d *Decider) run(ctx context.Context, spec search.Spec, opts SearchOptions) search.Result {
	if d.runner == nil {
		d.runner = new(search.Runner)
	}
	return d.runner.Run(ctx, spec, opts)
}

// grow returns s resized to n, over its backing array when that is
// large enough; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decideQDag answers the Q-dag model of bit: an Out decision carries
// the first violating triple in ExplainQDag's order.
func (d *Decider) decideQDag(ctx context.Context, bit uint16) Decision {
	if d.qDone&bit == 0 {
		if err := d.scanQDag(ctx, d.qAsk|bit); d.qDone&bit == 0 {
			return inconclusive(err)
		}
	}
	if d.qViol&bit == 0 {
		return Decision{Verdict: search.VerdictIn()}
	}
	v := d.qAt[bits.TrailingZeros16(bit)]
	return Decision{Verdict: search.VerdictOut(), Violation: &v}
}

// qdagHolds returns the Q-dag bits whose predicate holds at a triple
// whose u and v do or do not write the location: NN always, NW when v
// writes, WN when u writes, WW when both do.
func qdagHolds(uWrites, vWrites bool) uint16 {
	bits := PatternNN
	if vWrites {
		bits |= PatternNW
	}
	if uWrites {
		bits |= PatternWN
		if vWrites {
			bits |= PatternWW
		}
	}
	return bits
}

// scanQDag decides the Q-dag bits in want that are not yet decided, in
// one scan over the violation triples u ≺ v ≺ w with Φ(l,u) = Φ(l,w) ≠
// Φ(l,v), in ExplainQDag's order: l, then v, then u (⊥ first, then
// v's strict ancestors ascending), then w (v's strict descendants
// ascending). None of the four predicates reads w, so the first w of a
// (u, v) serves every predicate that holds there, and the first triple
// the scan records for a bit is the one ExplainQDag returns for its
// predicate. The scan skips a (u, v) once every bit it could violate is
// settled, and stops once every wanted bit is violated. It polls ctx
// once per (l, v); when ctx stops it, the bits violated so far stay
// decided and its error is returned.
func (d *Decider) scanQDag(ctx context.Context, want uint16) error {
	want &= patternQDag &^ d.qDone
	var viol uint16
	o, c, cl, done := d.o, d.c, d.cl, ctx.Done()
	for l := computation.Loc(0); int(l) < d.numLocs && viol != want; l++ {
		for vi := 0; vi < d.n && viol != want; vi++ {
			if done != nil && ctx.Err() != nil {
				d.qDone, d.qViol = d.qDone|viol, d.qViol|viol
				return ctx.Err()
			}
			v := dag.Node(vi)
			phiV := o.Get(l, v)
			vWrites := c.Op(v).IsWriteTo(l)
			if qdagHolds(true, vWrites)&want&^viol == 0 {
				continue
			}
			d.scanW(l, observer.Bottom, v, phiV, qdagHolds(false, vWrites)&want, &viol)
			cl.Ancestors(v).ForEach(func(ui int) bool {
				u := dag.Node(ui)
				if bits := qdagHolds(c.Op(u).IsWriteTo(l), vWrites) & want; bits&^viol != 0 {
					d.scanW(l, u, v, phiV, bits, &viol)
				}
				return qdagHolds(true, vWrites)&want&^viol != 0
			})
		}
	}
	d.qDone, d.qViol = d.qDone|want, d.qViol|viol
	return nil
}

// scanW looks for the first strict descendant w of v with Φ(l,w) =
// Φ(l,u) ≠ Φ(l,v) and records (l, u, v, w) as the first violating
// triple of each bit of holds not yet in viol.
func (d *Decider) scanW(l computation.Loc, u, v, phiV dag.Node, holds uint16, viol *uint16) {
	phiU := d.o.Get(l, u)
	if holds&^*viol == 0 || phiU == phiV {
		return
	}
	w := dag.None
	d.cl.Descendants(v).ForEach(func(wi int) bool {
		if d.o.Get(l, dag.Node(wi)) == phiU {
			w = dag.Node(wi)
			return false
		}
		return true
	})
	if w == dag.None {
		return
	}
	for b := holds &^ *viol; b != 0; b &= b - 1 {
		d.qAt[bits.TrailingZeros16(b)] = Violation{Loc: l, U: u, V: v, W: w}
	}
	*viol |= holds
}
