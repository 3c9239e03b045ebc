package memmodel

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file is the model registry: one ordered table of the memory
// models the frontends serve. A row carries what every layer needs to
// know about its model: the name, whether its decider runs a search on
// the engine, and how -explain shows its witness; its index is its
// pattern bit, which Decider.decide dispatches on. The exported model
// values (SC, LC, …), ModelNames, PatternModels, Lookup and
// DecideByName all derive from the table, so a new model is its decider
// file, one row, and its bit's case in the Decider.

// Verdict is the three-valued decision outcome (In / Out /
// Inconclusive with a machine-readable StopReason).
type Verdict = search.Verdict

// StopReason says why a decision came back inconclusive.
type StopReason = search.StopReason

// Decision is the structured outcome of one model-membership question:
// the three-valued verdict plus whatever explanation the decider can
// produce (a witness sort for SC, per-location sorts for LC, a
// violating triple for the quantified-dag models) and the engine stats
// when a search ran. The CLIs and the serving layer all render from
// this one shape, so their verdicts and witnesses cannot drift.
type Decision struct {
	// Model is the name the question was asked about.
	Model string
	// Verdict is the three-valued answer.
	Verdict Verdict
	// Stats reports the engine's work (engine models; zero otherwise).
	Stats SearchStats
	// Order is the witnessing sort when SC answered In, or the
	// witnessing memory order when TSO did.
	Order []dag.Node
	// LocOrders holds one witnessing sort per location when LC answered In.
	LocOrders [][]dag.Node
	// Violation is the witnessing triple when a quantified-dag model
	// answered Out.
	Violation *Violation
}

// Entry is one row of the model registry. It is a Model: Contains is
// the row's Decision, made without a deadline or budget.
type Entry struct {
	name string
	// engine marks a model decided by a search on the engine: its
	// decisions carry search stats, and the engine emits their run
	// events.
	engine bool
	// witness labels Decision.Order in -explain output; empty when the
	// model produces no order witness.
	witness string
	// explainOut, when set, proves an Out verdict from the pair itself,
	// for -explain.
	explainOut func(c *computation.Computation, o *observer.Observer) string
	// fences marks a model that tells a read from a no-op (see
	// ReadsOnlyWriters).
	fences bool
}

// registry lists the models strongest first along Figure 1 — the order
// the CLIs report and the serving layer defaults to — followed by the
// hardware/language models appended after the paper's six. A model's
// pattern bit is its row index, so rows are only ever appended.
var registry = [...]Entry{
	{name: "SC", engine: true, witness: "witness sort"},
	{name: "LC", explainOut: explainLCOut},
	{name: "NN"},
	{name: "NW"},
	{name: "WN"},
	{name: "WW"},
	{name: "TSO", engine: true, witness: "witness memory order", fences: true},
	{name: "RA"},
	{name: "CAUSAL"},
}

// registered returns the row named name; the model variables of the
// decider files bind to their rows through it.
func registered(name string) *Entry {
	e, err := Lookup(name)
	if err != nil {
		panic("memmodel: " + err.Error())
	}
	return e
}

// Name returns the model's registered name.
func (e *Entry) Name() string { return e.name }

// Contains reports whether (c, o) is in the model: the verdict of the
// model's full decider, run without a deadline or budget.
func (e *Entry) Contains(c *computation.Computation, o *observer.Observer) bool {
	d, _ := DecideByName(context.Background(), e.name, c, o, SearchOptions{})
	return d.Verdict.In()
}

// patternBit returns the row's PatternDecider bit, its index in the
// registry, or 0 for an Entry that is not a registry row.
func (e *Entry) patternBit() uint16 {
	for i := range registry {
		if &registry[i] == e {
			return 1 << i
		}
	}
	return 0
}

// ReadsOnlyWriters reports whether the model's verdict on a pair
// depends on c's labelling only through which nodes write which
// location, so that relabelling a node that writes nothing between a
// read and a no-op never changes it. Every row holds it but TSO, where
// a no-op is a fence (TestWriterSignatureLicense gives the argument per
// model and checks it). The sweeps decide the labellings of one writer
// signature together on that ground, and TSO's search once for the
// labellings that also share their effective fences, the no-ops some
// write precedes (TestFenceSetLicense).
func (e *Entry) ReadsOnlyWriters() bool { return !e.fences }

// Engine reports whether the model is decided by a search on the
// engine, so that its decisions carry search stats.
func (e *Entry) Engine() bool { return e.engine }

// WitnessLabel is how -explain introduces the Order witness of an In
// decision, or "" when the model has none.
func (e *Entry) WitnessLabel() string { return e.witness }

// ExplainOut proves that the pair is outside the model, for -explain,
// or returns "" when the model has no such proof beyond its Decision.
func (e *Entry) ExplainOut(c *computation.Computation, o *observer.Observer) string {
	if e.explainOut == nil {
		return ""
	}
	return e.explainOut(c, o)
}

// ModelNames lists the registered models in registry order.
func ModelNames() []string {
	names := make([]string, len(registry))
	for i := range registry {
		names[i] = registry[i].name
	}
	return names
}

// PatternModels lists the registered models in pattern bit order.
func PatternModels() []Model {
	models := make([]Model, len(registry))
	for i := range registry {
		models[i] = &registry[i]
	}
	return models
}

// Lookup resolves a model name, in any letter case, to its registry
// row. The error for an unknown name lists the registered ones.
func Lookup(name string) (*Entry, error) {
	for i := range registry {
		if strings.EqualFold(registry[i].name, name) {
			return &registry[i], nil
		}
	}
	return nil, unknownModel(name)
}

// DecideByName answers (c, o) ∈ model as Decider.Decide does, on a
// one-shot Decider.
func DecideByName(ctx context.Context, model string, c *computation.Computation, o *observer.Observer, opts SearchOptions) (Decision, error) {
	var d Decider
	d.Reset(c)
	d.Observe(o)
	d.qAsk = 0 // a Q-dag model scans for its own predicate alone
	return d.Decide(ctx, model, opts)
}

func unknownModel(name string) error {
	return fmt.Errorf("unknown model %q (known models: %s)", name, strings.Join(ModelNames(), ", "))
}

// inconclusive is the Decision of a polynomial decider stopped by ctx.
func inconclusive(err error) Decision {
	return Decision{Verdict: search.VerdictInconclusive(search.ContextStopReason(err))}
}
