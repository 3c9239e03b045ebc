// Package chaos is a deterministic fault harness for the BACKER
// simulator: every protocol violation is an explicit, serializable
// event in a FaultPlan instead of a coin flip, so any failure the
// harness finds is replayable byte-for-byte.
//
// The package provides, on top of plans:
//
//   - an Injector that drives backer.Run from a plan (each event fires
//     at most once, and the harness records which events fired);
//   - a text codec so plans round-trip through files and CLI flags;
//   - an explorer that systematically enumerates bounded plans for a
//     schedule (single-fault exhaustive, then pair-fault), verifies
//     each run with the post-mortem LC checker, and reuses the
//     governance layer (contexts, budgets, three-valued verdicts) so
//     sweeps are cancellable and inconclusiveness is typed;
//   - a shrinker that delta-debugs a violating (computation, schedule,
//     plan) triple to a locally minimal repro;
//   - an artifact writer that emits the shrunk repro as trace +
//     schedule + plan + DOT and classifies the broken execution
//     against the paper's model lattice.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Kind enumerates the fault kinds a plan can inject.
type Kind uint8

const (
	// SkipReconcile skips the reconcile of Src's processor demanded by
	// the crossing edge Src -> Dst: the backing store never learns
	// Src's processor's dirty values at that point.
	SkipReconcile Kind = iota
	// DelayReconcile performs the reconcile for the crossing edge
	// Src -> Dst late: Dst executes against a stale backing store, and
	// the write-backs land just after it. The source cache believes it
	// reconciled (lines go clean), so the values are in flight only.
	DelayReconcile
	// SkipFlush skips the flush of Dst's processor after its crossing
	// edges: stale cached lines survive the synchronization point.
	SkipFlush
	// CrashCache drops processor Proc's cache, dirty lines included,
	// immediately before the first node on Proc starting at or after
	// Tick executes — modelling cache loss at a chosen time.
	CrashCache
	// CorruptRead replaces the value returned by read node Dst with a
	// deterministic corrupted value no write stores.
	CorruptRead

	numKinds
)

var kindNames = [numKinds]string{
	SkipReconcile:  "skip-reconcile",
	DelayReconcile: "delay-reconcile",
	SkipFlush:      "skip-flush",
	CrashCache:     "crash-cache",
	CorruptRead:    "corrupt-read",
}

// String returns the codec spelling of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind parses the codec spelling of a kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault kind %q", s)
}

// Event is one fault, keyed by its site:
//
//   - SkipReconcile, DelayReconcile: the crossing edge Src -> Dst;
//   - SkipFlush, CorruptRead: the node Dst;
//   - CrashCache: the processor Proc and tick Tick.
//
// Unused fields are zero. Events are value types; plans compare and
// hash by event identity.
type Event struct {
	Kind     Kind
	Src, Dst dag.Node
	Proc     int
	Tick     sched.Tick
}

// String renders the event as one codec line (without newline).
func (e Event) String() string {
	switch e.Kind {
	case SkipReconcile, DelayReconcile:
		return fmt.Sprintf("%s %d %d", e.Kind, e.Src, e.Dst)
	case SkipFlush, CorruptRead:
		return fmt.Sprintf("%s %d", e.Kind, e.Dst)
	case CrashCache:
		return fmt.Sprintf("%s %d %d", e.Kind, e.Proc, e.Tick)
	default:
		return e.Kind.String()
	}
}

// validate checks the event against a schedule: nodes and processors
// must exist, edge-keyed events must name real crossing edges, node-
// keyed events must name nodes of the right kind. Plans that cannot
// ever fire are configuration bugs and fail loudly at Run time.
func (e Event) validate(s *sched.Schedule) error {
	n := s.Comp.NumNodes()
	inRange := func(u dag.Node) bool { return u >= 0 && int(u) < n }
	switch e.Kind {
	case SkipReconcile, DelayReconcile:
		if !inRange(e.Src) || !inRange(e.Dst) {
			return fmt.Errorf("chaos: event %q: node out of range [0, %d)", e, n)
		}
		if !s.Comp.Dag().HasEdge(e.Src, e.Dst) {
			return fmt.Errorf("chaos: event %q: no edge %d -> %d in the computation", e, e.Src, e.Dst)
		}
		if s.Proc[e.Src] == s.Proc[e.Dst] {
			return fmt.Errorf("chaos: event %q: edge %d -> %d does not cross processors", e, e.Src, e.Dst)
		}
	case SkipFlush, CorruptRead:
		if !inRange(e.Dst) {
			return fmt.Errorf("chaos: event %q: node out of range [0, %d)", e, n)
		}
	case CrashCache:
		if e.Proc < 0 || e.Proc >= s.P {
			return fmt.Errorf("chaos: event %q: processor out of range [0, %d)", e, s.P)
		}
		if e.Tick < 0 {
			return fmt.Errorf("chaos: event %q: negative tick", e)
		}
	default:
		return fmt.Errorf("chaos: unknown event kind %d", e.Kind)
	}
	return nil
}

// Plan is an explicit, ordered list of fault events: the deterministic
// replacement for probabilistic injection. The zero plan is healthy.
type Plan struct {
	Events []Event
}

// NewPlan builds a plan from events.
func NewPlan(events ...Event) *Plan {
	return &Plan{Events: append([]Event(nil), events...)}
}

// Clone returns a deep copy.
func (p *Plan) Clone() *Plan {
	return NewPlan(p.Events...)
}

// Without returns a copy of the plan with event i removed.
func (p *Plan) Without(i int) *Plan {
	out := &Plan{Events: make([]Event, 0, len(p.Events)-1)}
	out.Events = append(out.Events, p.Events[:i]...)
	out.Events = append(out.Events, p.Events[i+1:]...)
	return out
}

// Len returns the number of events.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Events)
}

// Equal reports event-for-event equality (order matters: plans are
// replayed in order, and the codec preserves order).
func (p *Plan) Equal(q *Plan) bool {
	if p.Len() != q.Len() {
		return false
	}
	for i := range p.Events {
		if p.Events[i] != q.Events[i] {
			return false
		}
	}
	return true
}

// String renders the plan in the codec text format.
func (p *Plan) String() string {
	var b strings.Builder
	if err := Format(&b, p); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

// corruptValue is the deterministic value a CorruptRead event installs
// for read node u: strictly negative, distinct per node, never equal to
// a UniqueWrites value (those are >= 1) and never trace.Undefined.
func corruptValue(u dag.Node) trace.Value {
	return trace.Value(-(int64(u) + 2))
}
