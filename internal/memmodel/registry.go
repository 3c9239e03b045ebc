package memmodel

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file is the model registry: one ordered table of the memory
// models the frontends serve. A row carries what every layer needs to
// know about its model: the name, the governed decide function, whether
// that function runs a search on the engine, and how -explain shows its
// witness. The exported model values (SC, LC, …), ModelNames,
// PatternModels, Lookup and DecideByName all derive from the table, so
// a new model is its decider file, one row, and its PatternDecider bit.

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

// decider answers (c, o) ∈ a model under ctx; o has already been
// validated for c.
type decider func(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) Decision

// Entry is one row of the model registry. It is a Model: Contains is
// the row's decide function, ungoverned.
type Entry struct {
	name   string
	decide decider
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
}

// registry lists the models strongest first along Figure 1 — the order
// the CLIs report and the serving layer defaults to — followed by the
// hardware/language models appended after the paper's six. A model's
// pattern bit is its row index, so rows are only ever appended.
var registry = [...]Entry{
	{name: "SC", decide: decideSC, engine: true, witness: "witness sort"},
	{name: "LC", decide: decideLC, explainOut: explainLCOut},
	{name: "NN", decide: decideQDag(PredNN)},
	{name: "NW", decide: decideQDag(PredNW)},
	{name: "WN", decide: decideQDag(PredWN)},
	{name: "WW", decide: decideQDag(PredWW)},
	{name: "TSO", decide: decideTSO, engine: true, witness: "witness memory order"},
	{name: "RA", decide: decideRA},
	{name: "CAUSAL", decide: decideCausal},
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

// Contains reports whether (c, o) is in the model, deciding it without
// a deadline or budget.
func (e *Entry) Contains(c *computation.Computation, o *observer.Observer) bool {
	return o.Validate(c) == nil && e.decide(context.Background(), c, o, SearchOptions{}).Verdict.In()
}

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

// DecideByName answers (c, o) ∈ model for one of the ModelNames,
// spelled exactly, under ctx. Engine models label their engine's run
// events on opts.Recorder with the model name; the polynomial ones get
// an explicit RunStart/RunEnd pair, so recorded sessions see one run
// per decision either way. An observer that fails validation is
// definitively Out (it is not an observer function for c at all). An
// unknown model name is an error naming the registered models.
func DecideByName(ctx context.Context, model string, c *computation.Computation, o *observer.Observer, opts SearchOptions) (Decision, error) {
	e, err := Lookup(model)
	if err != nil || e.name != model {
		return Decision{}, unknownModel(model)
	}
	opts.Recorder = obs.WithRun(opts.Recorder, e.name)
	if !e.engine {
		obs.Emit(opts.Recorder, obs.Event{Kind: obs.RunStart, Total: 1})
	}
	d := Decision{Verdict: search.VerdictOut()}
	if o.Validate(c) == nil {
		d = e.decide(ctx, c, o, opts)
	}
	d.Model = e.name
	if !e.engine {
		obs.Emit(opts.Recorder, obs.Event{Kind: obs.RunEnd, Str: d.Verdict.String()})
	}
	return d, nil
}

func unknownModel(name string) error {
	return fmt.Errorf("unknown model %q (known models: %s)", name, strings.Join(ModelNames(), ", "))
}

// inconclusive is the Decision of a polynomial decider stopped by ctx.
func inconclusive(err error) Decision {
	return Decision{Verdict: search.VerdictInconclusive(search.ContextStopReason(err))}
}
