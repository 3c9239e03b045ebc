package serve

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/search"
)

// The wire contract of the ccmd daemon. Verdicts reuse the JSON form
// of search.Verdict ("text" carries the CLI spelling, so a service
// verdict compares byte-identically against ccmc/verify output), and
// witnesses are rendered through the same helpers the CLIs use.

// Options is the per-request governance block. Every field is clamped
// against the server's Limits before it reaches the engine; zero means
// "server default".
type Options struct {
	// TimeoutMS is the wall-clock budget in milliseconds. Expiry yields
	// INCONCLUSIVE(deadline) verdicts, not an HTTP error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxStates caps search states explored per decision.
	MaxStates int64 `json:"max_states,omitempty"`
	// MaxMemoMB caps the search memo tables, in MiB (exact: answers
	// never change, the search just explores more states).
	MaxMemoMB int64 `json:"max_memo_mb,omitempty"`
	// Workers is the engine's parallel root-splitting width.
	Workers int `json:"workers,omitempty"`
}

// CheckRequest asks which memory models contain a (computation,
// observer) pair, given in the text format of the ccmc CLI.
type CheckRequest struct {
	Pair    string   `json:"pair"`
	Models  []string `json:"models,omitempty"` // default: all of memmodel.ModelNames
	Options Options  `json:"options"`
}

// SearchStats is the engine work summary attached to engine-backed
// results.
type SearchStats struct {
	States   int64 `json:"states"`
	MemoHits int64 `json:"memo_hits"`
	Pruned   int64 `json:"pruned"`
	Workers  int   `json:"workers"`
}

// ModelResult is one model's answer within a CheckResponse.
type ModelResult struct {
	Model   string         `json:"model"`
	Verdict search.Verdict `json:"verdict"`
	// Witness is the witnessing topological sort (SC, In verdicts) or
	// memory order (TSO, In verdicts), rendered with the pair's node
	// names.
	Witness string `json:"witness,omitempty"`
	// LocWitnesses holds one witnessing sort per location (LC, In).
	LocWitnesses []string `json:"loc_witnesses,omitempty"`
	// Violation renders the witnessing triple "loc: u ≺ v ≺ w"
	// (quantified-dag models, Out verdicts).
	Violation string `json:"violation,omitempty"`
	// Stats reports the engine's work (SC and TSO).
	Stats *SearchStats `json:"stats,omitempty"`
}

// CheckResponse answers a CheckRequest, one result per model in
// request order.
type CheckResponse struct {
	Results []ModelResult `json:"results"`
}

// VerifyRequest asks whether an executed trace (text format of the
// verify CLI) is explainable under LC and SC.
type VerifyRequest struct {
	Trace   string  `json:"trace"`
	Options Options `json:"options"`
}

// VerifyResult is one serialization check within a VerifyResponse.
type VerifyResult struct {
	Verdict search.Verdict `json:"verdict"`
	// Text is the verify-CLI spelling: "explainable", "VIOLATED", or
	// INCONCLUSIVE(reason).
	Text string `json:"text"`
	// Witness is the explaining observer function, rendered exactly as
	// the CLI's -witness output, for In verdicts.
	Witness string `json:"witness,omitempty"`
	States  int64  `json:"states"`
}

// VerifyResponse answers a VerifyRequest. When Explainable is false
// (some read returns a value no eligible write stored) the checks are
// skipped, mirroring the CLI.
type VerifyResponse struct {
	Explainable bool          `json:"explainable"`
	LC          *VerifyResult `json:"lc,omitempty"`
	SC          *VerifyResult `json:"sc,omitempty"`
	// Relaxed flags the coherent-but-not-SC diagnosis (LC explainable,
	// SC violated).
	Relaxed bool `json:"relaxed"`
}

// EnumerateRequest asks for the membership census over the exhaustive
// (computation, observer) universe up to MaxNodes nodes.
type EnumerateRequest struct {
	MaxNodes int `json:"max_nodes"`
	Locs     int `json:"locs,omitempty"`    // default 1
	Workers  int `json:"workers,omitempty"` // sweep shards, clamped
}

// EnumerateResponse carries the census table, byte-identical to the
// enumerate CLI's output for the same bounds.
type EnumerateResponse struct {
	MaxNodes int    `json:"max_nodes"` // after clamping
	Locs     int    `json:"locs"`
	Census   string `json:"census"`
}

// ErrorResponse is the JSON body of every non-2xx response. RequestID
// repeats the X-Request-Id header so a logged body alone is enough to
// correlate with the daemon's access log.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Limits is the server-side governance ceiling. Requests may ask for
// less than these, never more; zero fields mean "no ceiling".
type Limits struct {
	// DefaultTimeout applies when a request asks for no timeout.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request deadline.
	MaxTimeout time.Duration
	// MaxStates caps (and defaults) the per-decision state budget.
	MaxStates int64
	// MaxMemoMB caps (and defaults) the per-search memo tables, in MiB.
	MaxMemoMB int64
	// MaxWorkers caps the engine width a request may ask for.
	MaxWorkers int
	// MaxEnumNodes caps /v1/enumerate's universe bound (the sweep is
	// doubly exponential in it and has no mid-flight governor).
	MaxEnumNodes int
}

// clampInt64 applies a ceiling: req 0 means "server default" (the
// ceiling itself), and positive requests are capped at the ceiling.
func clampInt64(req, max int64) int64 {
	switch {
	case max <= 0:
		return req
	case req <= 0 || req > max:
		return max
	default:
		return req
	}
}

// saturatingMul returns v*unit for a positive unit, pinned at the int64
// range's ends instead of wrapping.
func saturatingMul(v, unit int64) int64 {
	switch {
	case v > math.MaxInt64/unit:
		return math.MaxInt64
	case v < math.MinInt64/unit:
		return math.MinInt64
	}
	return v * unit
}

// searchOptions maps request options onto engine options under the
// limits, and returns the effective wall-clock budget (0 = none). The
// unit conversions saturate, so an oversized request gets the ceiling,
// or the largest representable value when there is none.
func (l Limits) searchOptions(o Options) (search.Options, time.Duration) {
	opts := search.Options{
		Budget:       clampInt64(o.MaxStates, l.MaxStates),
		MaxMemoBytes: saturatingMul(clampInt64(o.MaxMemoMB, l.MaxMemoMB), 1<<20),
		Workers:      int(clampInt64(int64(o.Workers), int64(l.MaxWorkers))),
	}
	timeout := time.Duration(saturatingMul(o.TimeoutMS, int64(time.Millisecond)))
	if timeout <= 0 {
		timeout = l.DefaultTimeout
	}
	if l.MaxTimeout > 0 && (timeout <= 0 || timeout > l.MaxTimeout) {
		timeout = l.MaxTimeout
	}
	return opts, timeout
}

// ExchangeTimeout is the deadline the Timeout middleware puts on a
// whole HTTP exchange, derived from the governance ceilings: twice the
// largest decision deadline the limits allow (a request can spend one
// ceiling waiting in the admission queue and one deciding) plus fixed
// scheduling grace. An ungoverned server (no timeout ceilings) gets no
// exchange bound — there is nothing to clamp onto.
func (l Limits) ExchangeTimeout() time.Duration {
	d := l.MaxTimeout
	if d <= 0 {
		d = l.DefaultTimeout
	}
	if d <= 0 {
		return 0
	}
	return 2*d + 10*time.Second
}

// optionsFingerprint is the options part of the verdict-cache key:
// the fields that can change which answer a governed decision reaches
// (budgets and engine width under a budget). The timeout is excluded —
// it only affects INCONCLUSIVE outcomes, which are never cached.
func (l Limits) optionsFingerprint(o Options) string {
	opts, _ := l.searchOptions(o)
	return fmt.Sprintf("budget=%d,memo=%d,workers=%d", opts.Budget, opts.MaxMemoBytes, opts.Workers)
}

// validModels screens a requested model list (nil = all) against the
// known names, preserving request order.
func validModels(req []string, known []string) ([]string, error) {
	if len(req) == 0 {
		return known, nil
	}
	set := make(map[string]bool, len(known))
	for _, m := range known {
		set[m] = true
	}
	for _, m := range req {
		if !set[m] {
			return nil, fmt.Errorf("unknown model %q (valid: %s)", m, strings.Join(known, ", "))
		}
	}
	return req, nil
}
