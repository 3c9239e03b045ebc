package search

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// This file defines the typed three-valued verdict shared by every
// decision procedure built on the engine. A decision is In (a witness
// exists), Out (exhaustive search excluded one), or Inconclusive with a
// machine-readable reason: the search was stopped by a resource
// governor before it could decide. The cmd tools map Inconclusive to a
// distinct exit code so scripts can retry with a larger budget instead
// of mistaking "ran out of time" for "not in the model".

// StopReason says why a search stopped before exhausting its space.
type StopReason uint8

const (
	// StopNone: the search was not stopped (it found a witness or
	// exhausted the space).
	StopNone StopReason = iota
	// StopBudget: the state budget (Options.Budget) ran out.
	StopBudget
	// StopDeadline: the context's deadline expired.
	StopDeadline
	// StopCancel: the context was cancelled explicitly.
	StopCancel
	// StopMemory: a memory governor aborted the search. The memo cap
	// (Options.MaxMemoBytes) never produces this — it degrades exactly
	// by dropping inserts — but external governors that watch process
	// memory report it.
	StopMemory
	// StopFleet: a fleet-verification run lost shards to replica
	// failures after retries were exhausted, so the merged verdict
	// covers only part of the root frontier. The engine never produces
	// this reason; only the internal/fleet merge layer does, and the
	// fleet report carries the exact shard-coverage counts behind it.
	StopFleet
	// StopOverrun: a streaming ingest outran its bounded event buffer
	// and events were shed, so the checker saw only part of the trace.
	// The engine never produces this reason; only the streaming
	// overflow policy does. Stable violations detected before the
	// overrun remain definitive — only undecided models degrade.
	StopOverrun
)

// String returns the reason in the spelling used by the CLI verdicts.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopBudget:
		return "budget"
	case StopDeadline:
		return "deadline"
	case StopCancel:
		return "cancelled"
	case StopMemory:
		return "memory"
	case StopFleet:
		return "fleet"
	case StopOverrun:
		return "overrun"
	default:
		return "unknown"
	}
}

// ContextStopReason classifies a context error: DeadlineExceeded maps
// to StopDeadline, everything else to StopCancel. Callers that stop on
// ctx.Err() outside the engine (the polynomial LC decider, the Q-dag
// scan, the enumerators) use it to report the same reasons the engine
// does.
func ContextStopReason(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancel
}

// ctxStopReason is the engine-internal spelling.
func ctxStopReason(err error) StopReason { return ContextStopReason(err) }

// Verdict is a three-valued decision outcome.
type Verdict struct {
	// Decided reports a definitive answer; Member is then meaningful.
	Decided bool
	// Member reports membership (the "In" of In/Out) when Decided.
	Member bool
	// Reason says which governor stopped the search when !Decided.
	Reason StopReason
}

// The three verdict constructors.
func VerdictIn() Verdict                       { return Verdict{Decided: true, Member: true} }
func VerdictOut() Verdict                      { return Verdict{Decided: true} }
func VerdictInconclusive(r StopReason) Verdict { return Verdict{Reason: r} }

// In reports a definitive positive answer.
func (v Verdict) In() bool { return v.Decided && v.Member }

// Out reports a definitive negative answer.
func (v Verdict) Out() bool { return v.Decided && !v.Member }

// Inconclusive reports that no definitive answer was reached.
func (v Verdict) Inconclusive() bool { return !v.Decided }

// String renders "IN", "OUT", or "INCONCLUSIVE(reason)".
func (v Verdict) String() string {
	switch {
	case v.In():
		return "IN"
	case v.Out():
		return "OUT"
	default:
		return "INCONCLUSIVE(" + v.Reason.String() + ")"
	}
}

// ParseStopReason inverts StopReason.String. Unknown spellings are an
// error so wire decoding cannot silently invent a reason.
func ParseStopReason(s string) (StopReason, error) {
	for r := StopNone; r <= StopOverrun; r++ {
		if r.String() == s {
			return r, nil
		}
	}
	return StopNone, fmt.Errorf("search: unknown stop reason %q", s)
}

// verdictJSON is the stable wire form of a Verdict: the CLI spelling
// in "text" for humans and byte-exact comparisons, plus the structured
// fields so clients never have to parse the spelling back apart.
// Member is omitted unless decided; reason is omitted unless the
// verdict is inconclusive.
type verdictJSON struct {
	Text    string `json:"text"`
	Decided bool   `json:"decided"`
	Member  *bool  `json:"member,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// MarshalJSON renders the verdict in its wire form.
func (v Verdict) MarshalJSON() ([]byte, error) {
	j := verdictJSON{Text: v.String(), Decided: v.Decided}
	if v.Decided {
		m := v.Member
		j.Member = &m
	} else {
		j.Reason = v.Reason.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var j verdictJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*v = Verdict{Decided: j.Decided}
	if j.Decided {
		if j.Member != nil {
			v.Member = *j.Member
		}
		return nil
	}
	r, err := ParseStopReason(j.Reason)
	if err != nil {
		return err
	}
	v.Reason = r
	return nil
}

// Verdict folds a Result into the three-valued form: Found is
// definitive membership, an exhausted search without a witness is
// definitive non-membership, and anything else is inconclusive with
// the recorded stop reason.
func (r Result) Verdict() Verdict {
	switch {
	case r.Found:
		return VerdictIn()
	case r.Exhausted:
		return VerdictOut()
	default:
		reason := r.Stop
		if reason == StopNone {
			reason = StopBudget // a non-exhausted search always has a stop; default conservatively
		}
		return VerdictInconclusive(reason)
	}
}
