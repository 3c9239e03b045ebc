package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file implements the pooled single-pass membership decider the
// symmetry-reduced lattice sweep runs per pair: one 9-bit pattern
// holding membership of (c, o) in every registered model at once,
// computed without the per-pair allocations (candidate slices, witness
// sorts, violation triples) the individual Contains calls pay. On the
// exhaustive sweeps this replaces 32 independent model decisions per
// pair (16 lattice edges × 2) with one fused scan.
//
// Two structural facts keep it exact rather than heuristic:
//
//   - SC ⊆ LC holds by definition, not by theorem: an SC witness sort
//     restricted to any one location witnesses that location's LC
//     serialization. A pair out of LC is therefore out of SC with no
//     search. (The converse inclusion is what the experiments check;
//     nothing here assumes it.)
//
//   - With a single location the SC and LC membership questions are
//     literally the same quantifier ("one sort realizing Φ at every
//     location" = "one sort realizing Φ at the only location"), so
//     L=1 sweeps — the big ones — never touch the exponential engine.
//     With L ≥ 2 and the pair in LC, SC falls back to the engine.
//
// The decider assumes o is a valid observer for c (observer.Enumerate
// yields only valid observers; Validate costs more than the rest of
// the scan combined). The differential tests pin the pattern bits to
// the registered models' Contains over the full n ≤ 4 universe.

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

// patternEvery holds every registered model's bit.
const patternEvery = uint16(1)<<len(registry) - 1

// PatternDecider computes membership patterns for the observers of
// one computation at a time. Reset once per computation, then Pattern
// or Masked once per observer. Buffers live across both: the LC and
// happens-before cores, and one search.Runner for the engine searches
// (SC with L ≥ 2 locations, TSO). Not safe for concurrent use.
type PatternDecider struct {
	c       *computation.Computation
	cl      *dag.Closure
	n       int
	numLocs int
	writers [][]dag.Node // per location, cached from c.Writers
	lc      lcCore
	hb      hbCore
	runner  search.Runner
}

// NewPatternDecider returns a decider; its engine searches (SC with
// L ≥ 2 locations, TSO) run with default options.
func NewPatternDecider() *PatternDecider { return &PatternDecider{} }

// Reset points the decider at a computation.
func (pd *PatternDecider) Reset(c *computation.Computation) {
	pd.c = c
	pd.cl = c.Closure()
	pd.n = c.NumNodes()
	pd.numLocs = c.NumLocs()
	pd.writers = writersByLoc(c)
}

// Pattern returns the membership pattern of (c, o) for a valid
// observer o of the Reset computation: every registered model's bit.
func (pd *PatternDecider) Pattern(o *observer.Observer) uint16 {
	return pd.Masked(o, patternEvery)
}

// Masked returns Pattern(o) & mask, deciding only what the requested
// bits need: LC (and SC behind it) when SC, LC or TSO is asked for,
// the fused Q-dag scan when a Q-dag bit is, and the happens-before
// build when RA, CAUSAL or TSO is, each of those three only when its
// own bit is. A bit never depends on which other bits were asked for:
// TSO's SC shortcut is taken whenever LC and SC ran, and they run
// whenever TSO is asked for.
func (pd *PatternDecider) Masked(o *observer.Observer, mask uint16) uint16 {
	const (
		qdag     = PatternNN | PatternNW | PatternWN | PatternWW
		lcNeeded = PatternSC | PatternLC | PatternTSO
		hbNeeded = PatternTSO | PatternRA | PatternCAUSAL
	)
	var pattern uint16
	if mask&qdag != 0 {
		pattern = pd.qdagBits(o)
	}
	sc := false
	if mask&lcNeeded != 0 && pd.lcOK(o) {
		pattern |= PatternLC
		// One location: SC and LC coincide.
		sc = pd.numLocs <= 1 || pd.runner.Run(context.Background(), lastWriterSpec(pd.c, o, allLocs(pd.c)), SearchOptions{}).Found
	}
	if sc {
		pattern |= PatternSC
	}
	// The extension models share one happens-before relation, whose
	// acyclicity tsoSpec requires; SC ⊆ TSO spares the engine when the
	// pair is already known in.
	if mask&hbNeeded != 0 && pd.hb.build(pd.c, pd.cl, o) {
		if mask&PatternRA != 0 && pd.hb.ra(context.Background(), pd.c, o, pd.writers).In() {
			pattern |= PatternRA
		}
		if mask&PatternCAUSAL != 0 && pd.hb.causal(context.Background(), pd.c, o, pd.writers).In() {
			pattern |= PatternCAUSAL
		}
		if mask&PatternTSO != 0 {
			if sc {
				pattern |= PatternTSO
			} else if spec, feasible := tsoSpec(pd.c, pd.cl, o, pd.writers); feasible {
				if pd.runner.Run(context.Background(), spec, SearchOptions{}).Found {
					pattern |= PatternTSO
				}
			}
		}
	}
	return pattern & mask
}

// qdagBits evaluates all four Q-dag consistency predicates in one scan
// over the violation triples u ≺ v ≺ w, Φ(l,u) = Φ(l,w) ≠ Φ(l,v):
// every such triple violates NN; it violates NW/WN/WW exactly when the
// corresponding side conditions (v resp. u writes l) hold. The scan
// stops once all four are violated.
func (pd *PatternDecider) qdagBits(o *observer.Observer) uint16 {
	const qAll = PatternNN | PatternNW | PatternWN | PatternWW
	var viol uint16
	for l := computation.Loc(0); int(l) < pd.numLocs; l++ {
		for vi := 0; vi < pd.n && viol != qAll; vi++ {
			v := dag.Node(vi)
			phiV := o.Get(l, v)
			vWrites := pd.c.Op(v).IsWriteTo(l)
			// A triple at this v can only add these bits:
			vAdds := PatternNN | PatternWN
			if vWrites {
				vAdds |= PatternNW | PatternWW
			}
			if vAdds&^viol == 0 {
				continue
			}
			// u = ⊥ first, then the strict ancestors of v. A ⊥ triple
			// can settle NN/NW but never WN/WW, so the ancestors still
			// run when a writer u could add bits.
			pd.scanW(o, l, observer.Bottom, v, phiV, false, &viol)
			if vAdds&^viol == 0 {
				continue
			}
			anc := pd.cl.Ancestors(v)
			anc.ForEach(func(ui int) bool {
				u := dag.Node(ui)
				uWrites := pd.c.Op(u).IsWriteTo(l)
				// This u can only add NN (+NW if vWrites) unless it
				// writes; skip once those are settled.
				uAdds := PatternNN
				if vWrites {
					uAdds |= PatternNW
				}
				if uWrites {
					uAdds |= PatternWN
					if vWrites {
						uAdds |= PatternWW
					}
				}
				if uAdds&^viol == 0 {
					return true
				}
				pd.scanW(o, l, u, v, phiV, uWrites, &viol)
				return viol != qAll
			})
		}
	}
	return qAll &^ viol
}

// scanW looks for a descendant w of v with Φ(l,w) = Φ(l,u) ≠ Φ(l,v)
// and accumulates the violated predicates. Reports whether the (u, v)
// pair is settled (a violating w was found).
func (pd *PatternDecider) scanW(o *observer.Observer, l computation.Loc, u, v dag.Node, phiV dag.Node, uWrites bool, viol *uint16) bool {
	phiU := o.Get(l, u)
	if phiU == phiV {
		return false
	}
	found := false
	pd.cl.Descendants(v).ForEach(func(wi int) bool {
		if o.Get(l, dag.Node(wi)) != phiU {
			return true
		}
		found = true
		return false
	})
	if !found {
		return false
	}
	*viol |= PatternNN
	vWrites := pd.c.Op(v).IsWriteTo(l)
	if vWrites {
		*viol |= PatternNW
	}
	if uWrites {
		*viol |= PatternWN
		if vWrites {
			*viol |= PatternWW
		}
	}
	return true
}

// lcOK reports whether the observer admits a serialization at every
// location: the shared LC core, run without materializing the witness
// sorts.
func (pd *PatternDecider) lcOK(o *observer.Observer) bool {
	for l := 0; l < pd.numLocs; l++ {
		writers := pd.writers[l]
		if _, ok := pd.lc.check(pd.c, pd.cl, o, computation.Loc(l), writers); !ok {
			return false
		}
		if _, ok := pd.lc.sort(); !ok {
			return false
		}
	}
	return true
}
