// Package ccm is a computation-centric memory-model toolkit: an
// executable reproduction of Matteo Frigo and Victor Luchangco,
// "Computation-Centric Memory Models", SPAA 1998.
//
// The paper separates the logical dependencies among instructions (the
// computation, a dag of labelled nodes) from the processors that happen
// to execute them, and specifies memory semantics through observer
// functions: for every node and location, which write that node
// observes. A memory model is a set of (computation, observer) pairs.
//
// This package is the public facade over the implementation packages:
//
//   - computations (Definition 1) and observer functions (Definition 2);
//   - the memory models of the paper: sequential consistency SC
//     (Definition 17), location consistency LC (Definition 18), and the
//     dag-consistency family NN, NW, WN, WW (Definition 20);
//   - the abstract properties of Sections 2–3: completeness,
//     monotonicity, and constructibility, with the constructible-version
//     fixpoint engine of Definition 8;
//   - exhaustive small-universe experiment drivers that machine-check
//     the paper's Figure 1 lattice and Theorems 19–23;
//   - post-mortem trace verification (values in, verdict out), and a
//     simulated multiprocessor running the BACKER coherence algorithm
//     of Cilk, which maintains LC.
//
// # Quick start
//
//	c := ccm.NewComputation(1)          // one memory location
//	w := c.AddNode(ccm.W(0))            // a write
//	r := c.AddNode(ccm.R(0))            // a read
//	c.MustAddEdge(w, r)                 // the read depends on the write
//
//	phi := ccm.NewObserver(c)           // writes observe themselves
//	phi.Set(0, r, w)                    // the read observes the write
//
//	ccm.SC.Contains(c, phi)             // true
//
// See the runnable programs under examples/ and the experiment index in
// DESIGN.md and EXPERIMENTS.md.
package ccm

import (
	"context"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Core types, re-exported as aliases so that values flow freely between
// the facade and the implementation packages.
type (
	// Computation is a dag of instruction-labelled nodes (Definition 1).
	Computation = computation.Computation
	// Node identifies a computation node; Bottom (⊥) is "no node".
	Node = dag.Node
	// Loc identifies a memory location.
	Loc = computation.Loc
	// Op is an abstract instruction: R(l), W(l), or the no-op N.
	Op = computation.Op
	// Observer is an observer-function candidate (Definition 2).
	Observer = observer.Observer
	// Model is a memory model: a decidable set of pairs (Definition 3).
	Model = memmodel.Model
	// Predicate parameterizes Q-dag consistency (Definition 20).
	Predicate = memmodel.Predicate
	// Trace is an executed computation with concrete values.
	Trace = trace.Trace
	// Schedule is a simulated P-processor execution plan.
	Schedule = sched.Schedule
)

// Bottom is the ⊥ observer value: "no write observed".
const Bottom = observer.Bottom

// Undefined is the value a read returns when it observes ⊥.
const Undefined = trace.Undefined

// Instruction constructors.
var (
	// N is the no-op instruction.
	N = computation.N
)

// R returns the read instruction R(l).
func R(l Loc) Op { return computation.R(l) }

// W returns the write instruction W(l).
func W(l Loc) Op { return computation.W(l) }

// AllOps returns the instruction set O for numLocs locations.
func AllOps(numLocs int) []Op { return computation.AllOps(numLocs) }

// NewComputation returns an empty computation over numLocs locations.
func NewComputation(numLocs int) *Computation { return computation.New(numLocs) }

// NewObserver returns the canonical minimal observer for c: writes
// observe themselves, everything else observes ⊥.
func NewObserver(c *Computation) *Observer { return observer.New(c) }

// LastWriterObserver returns W_T, the last-writer observer of the
// topological sort order (Definition 13); it is always an SC witness.
func LastWriterObserver(c *Computation, order []Node) *Observer {
	return observer.FromLastWriter(c, order)
}

// The memory models of Figure 1.
var (
	// SC is sequential consistency (Definition 17).
	SC = memmodel.SC
	// LC is location consistency / coherence (Definition 18); it is the
	// constructible version of NN (Theorem 23).
	LC = memmodel.LC
	// NN is the strongest dag-consistent model (Theorem 21); it is not
	// constructible (Figure 4).
	NN = memmodel.NN
	// NW is dag consistency requiring the middle node to write.
	NW = memmodel.NW
	// WN is the dag consistency of [BFJ+96a].
	WN = memmodel.WN
	// WW is the original dag consistency of [BFJ+96b].
	WW = memmodel.WW
	// Trivial is the weakest model: every valid pair.
	Trivial = memmodel.Trivial
)

// QDag returns the Q-dag consistency model for a custom predicate.
func QDag(p Predicate) Model { return memmodel.QDag(p) }

// Intersection returns the model accepting pairs in all operands.
func Intersection(name string, models ...Model) Model {
	return memmodel.Intersection(name, models...)
}

// Union returns the model accepting pairs in any operand (Lemma 7:
// unions of constructible models are constructible).
func Union(name string, models ...Model) Model {
	return memmodel.Union(name, models...)
}

// NewTrace returns a zero-valued trace skeleton for c.
func NewTrace(c *Computation) *Trace { return trace.New(c) }

// TraceFromObserver derives the trace an execution with observer o
// would produce, with unique write values.
func TraceFromObserver(c *Computation, o *Observer) *Trace {
	return trace.FromObserver(c, o)
}

// VerifySC decides post mortem whether a trace is explainable under
// sequential consistency, returning a witness observer when it is.
func VerifySC(t *Trace) (*Observer, bool) {
	res := checker.VerifySC(context.Background(), t, checker.SearchOptions{})
	return res.Observer, res.Verdict.In()
}

// VerifyLC decides post mortem whether a trace is explainable under
// location consistency, returning a witness observer when it is.
func VerifyLC(t *Trace) (*Observer, bool) {
	res := checker.VerifyLC(context.Background(), t, checker.SearchOptions{})
	return res.Observer, res.Verdict.In()
}

// Extension models beyond the paper's Figure 1 (see DESIGN.md §6).
var (
	// GSLC is Gao & Sarkar's location consistency [GS95], the model the
	// paper's Section 7 distinguishes from Definition 18. Its lattice
	// position here: NW ⊊ GSLC ⊊ WW, incomparable with WN, strictly
	// weaker than LC.
	GSLC = memmodel.GSLC
	// Amnesiac is the constructible model proving LC ⊊ WN* (writes
	// observe themselves, everything else observes ⊥).
	Amnesiac = memmodel.Amnesiac
)

// Online memory algorithms (Section 3 made operational).
type (
	// OnlineMemory is an algorithm that fixes observer rows as the
	// computation is revealed node by node.
	OnlineMemory = memory.Memory
)

// NewSerialMemory returns the online memory implementing SC.
func NewSerialMemory() OnlineMemory { return memory.NewSerial() }

// NewUniversalMemory returns the greedy online algorithm for an
// arbitrary model; it is total exactly when every reachable pair
// extends (constructibility), and returns memory.ErrStuck otherwise.
func NewUniversalMemory(m Model) OnlineMemory { return memory.NewUniversal(m) }

// RunMemory reveals c to the memory in the given topological order and
// assembles the produced observer function.
func RunMemory(m OnlineMemory, c *Computation, order []Node) (*Observer, error) {
	return memory.Run(m, c, order)
}

// CanExtend reports whether observer o on c extends into model m across
// the one-node extension ext — the building block of constructibility
// (Theorems 10 and 12).
func CanExtend(m Model, c *Computation, o *Observer, ext *Computation) bool {
	return memmodel.CanExtend(m, c, o, ext)
}
