package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/serve"
)

// Replaying one /v1/check or /v1/batch request in-process, through the
// public calls the daemon's handler makes, times each stage of the serve
// and decide path separately. The daemon runs with default flags, so its
// governance is the zero search.Options under a 30 s deadline.

const (
	defaultTimeout = 30 * time.Second
	// defaultFingerprint is the options part of the daemon's cache key
	// under default flags and empty request options.
	defaultFingerprint = "budget=0,memo=0,workers=0"
	// maxTracedRequests caps the per-request spans written to the span
	// file; the metrics use every sampled request.
	maxTracedRequests = 200
)

// stageTimes is one replay's stage durations and engine counters, or a
// sum of them over n replays.
type stageTimes struct {
	n                            int
	decode, parse, canon, render time.Duration
	decide                       [9]time.Duration // in models order
	states, memoHits, pruned     int64            // SC and TSO searches
	sleepPruned                  int64
	scIn, tsoIn                  int
	verdicts                     []string // one replay's verdicts, in models order
}

func (s *stageTimes) add(o stageTimes) {
	s.n++
	s.decode += o.decode
	s.parse += o.parse
	s.canon += o.canon
	s.render += o.render
	for i := range s.decide {
		s.decide[i] += o.decide[i]
	}
	s.states += o.states
	s.memoHits += o.memoHits
	s.pruned += o.pruned
	s.sleepPruned += o.sleepPruned
	s.scIn += o.scIn
	s.tsoIn += o.tsoIn
}

// decided records model m's verdict and, for the SC and TSO searches,
// the engine's counters.
func (s *stageTimes) decided(m string, v memmodel.Verdict, stats memmodel.SearchStats) {
	s.verdicts = append(s.verdicts, v.String())
	if m != "SC" && m != "TSO" {
		return
	}
	s.states += stats.States
	s.memoHits += stats.MemoHits
	s.pruned += stats.Pruned
	s.sleepPruned += stats.SleepSetPruned
	if v.In() {
		if m == "SC" {
			s.scIn = 1
		} else {
			s.tsoIn = 1
		}
	}
}

// stopwatch times consecutive stages, recording each as a span when it
// has a tracer.
type stopwatch struct {
	tr   *tracer
	args map[string]any
	last time.Time
}

func (w *stopwatch) lap(name string) time.Duration {
	now := time.Now()
	d := now.Sub(w.last)
	if w.tr != nil {
		w.tr.span(name, "stage", tidReplay, w.last, d, w.args)
	}
	w.last = now
	return d
}

// parseCanon parses a pair and builds its cache key from its canonical
// text, as both handlers do; keyOf builds the key from the text.
func parseCanon(w *stopwatch, st *stageTimes, pair string, keyOf func(canon string) string) (*computation.Named, *observer.Observer, string, error) {
	named, o, err := observer.ParsePairString(pair)
	if err != nil {
		return nil, nil, "", fmt.Errorf("parse: %w", err)
	}
	st.parse += w.lap("parse.pair")
	var canon strings.Builder
	if err := observer.FormatPair(&canon, named, o); err != nil {
		return nil, nil, "", fmt.Errorf("canon: %w", err)
	}
	key := keyOf(canon.String())
	st.canon += w.lap("canon.key")
	return named, o, key, nil
}

// rendered are a decision's wire fields as both handlers render them:
// the witness (SC and TSO, IN), one witness per location (LC, IN), the
// violating triple (the quantified-dag models, OUT) and the engine's
// counters (SC and TSO).
type rendered struct {
	witness      string
	locWitnesses []string
	violation    string
	stats        *serve.SearchStats
}

func render(named *computation.Named, m string, d memmodel.Decision) rendered {
	var r rendered
	switch m {
	case "SC", "TSO":
		r.stats = &serve.SearchStats{States: d.Stats.States, MemoHits: d.Stats.MemoHits, Pruned: d.Stats.Pruned, Workers: d.Stats.Workers}
		if d.Verdict.In() {
			r.witness = named.RenderOrder(d.Order)
		}
	case "LC":
		if d.Verdict.In() {
			for _, sort := range d.LocOrders {
				r.locWitnesses = append(r.locWitnesses, named.RenderOrder(sort))
			}
		}
	default:
		if v := d.Violation; v != nil {
			r.violation = fmt.Sprintf("%d: %s ≺ %s ≺ %s", v.Loc, named.RenderNode(v.U), named.RenderNode(v.V), named.RenderNode(v.W))
		}
	}
	return r
}

// replay runs a /v1/check body through decode, parse, canonical key,
// every model's decision and response rendering, timing each. With a
// tracer it records the stages as spans of request req.
func replay(body []byte, tr *tracer, req int) (stageTimes, error) {
	var st stageTimes
	start := time.Now()
	w := stopwatch{tr: tr, args: map[string]any{"req": req}, last: start}

	var cr serve.CheckRequest
	if err := json.Unmarshal(body, &cr); err != nil {
		return st, fmt.Errorf("decode: %w", err)
	}
	st.decode = w.lap("http.decode")

	named, o, key, err := parseCanon(&w, &st, cr.Pair, func(canon string) string {
		return serve.Key("check", canon, strings.Join(models, ","), defaultFingerprint)
	})
	if err != nil {
		return st, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()
	decisions := make([]memmodel.Decision, len(models))
	for k, m := range models {
		d, err := memmodel.DecideByName(ctx, m, named.Comp, o, memmodel.SearchOptions{})
		if err != nil {
			return st, err
		}
		st.decide[k] = w.lap("decide." + m)
		decisions[k] = d
		st.decided(m, d.Verdict, d.Stats)
	}

	// Rendering, as the handler builds its response.
	resp := serve.CheckResponse{Results: make([]serve.ModelResult, 0, len(models))}
	for k, m := range models {
		r := render(named, m, decisions[k])
		resp.Results = append(resp.Results, serve.ModelResult{Model: m, Verdict: decisions[k].Verdict,
			Witness: r.witness, LocWitnesses: r.locWitnesses, Violation: r.violation, Stats: r.stats})
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return st, err
	}
	st.render = w.lap("render.json")
	if tr != nil {
		tr.span("replay", "request", tidReplay, start, w.last.Sub(start), map[string]any{"req": req, "key": key, "bytes": len(out)})
	}
	return st, nil
}

// replayBatch runs a /v1/batch body with one item per model, in models
// order, through the handler's stages: decode, then for every item the
// parse, the canonical key, the item's decision (SC as a frontier shard,
// as the daemon decides it) and its rendering — the cacheable item body,
// read back as the handler reads it from the cache — and finally the
// response. The per-item stages are summed over the items.
func replayBatch(body []byte, tr *tracer, req int) (stageTimes, error) {
	var st stageTimes
	start := time.Now()
	w := stopwatch{tr: tr, args: map[string]any{"req": req}, last: start}

	var br serve.BatchRequest
	if err := json.Unmarshal(body, &br); err != nil {
		return st, fmt.Errorf("decode: %w", err)
	}
	st.decode = w.lap("http.decode")
	if len(br.Items) != len(models) {
		return st, fmt.Errorf("batch has %d items, want one per model", len(br.Items))
	}

	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()
	resp := serve.BatchResponse{Results: make([]serve.BatchResult, 0, len(br.Items))}
	for k, it := range br.Items {
		if it.Model != models[k] {
			return st, fmt.Errorf("batch item %d is %s, want %s", k, it.Model, models[k])
		}
		named, o, _, err := parseCanon(&w, &st, it.Pair, func(canon string) string {
			return serve.Key("batch", canon, it.Model, fmt.Sprintf("lo=%d,hi=%d", it.RootLo, it.RootHi), defaultFingerprint)
		})
		if err != nil {
			return st, err
		}

		res := serve.BatchResult{Model: it.Model, WitnessRoot: -1}
		if it.Model == "SC" {
			sr := memmodel.SCDecideShard(ctx, named.Comp, o, it.RootLo, it.RootHi, memmodel.SearchOptions{})
			res.Verdict, res.WitnessRoot, res.RootsTotal = sr.Verdict(), sr.WitnessRoot, sr.Stats.Roots
			r := render(named, "SC", memmodel.Decision{Verdict: res.Verdict, Stats: sr.Stats, Order: sr.Order})
			res.Witness, res.Stats = r.witness, r.stats
			st.decide[k] = w.lap("decide.SC")
			st.decided("SC", res.Verdict, sr.Stats)
		} else {
			d, err := memmodel.DecideByName(ctx, it.Model, named.Comp, o, memmodel.SearchOptions{})
			if err != nil {
				return st, err
			}
			res.Verdict = d.Verdict
			r := render(named, it.Model, d)
			res.Witness, res.LocWitnesses, res.Violation = r.witness, r.locWitnesses, r.violation
			if it.Model == "TSO" {
				res.Stats = r.stats
			}
			st.decide[k] = w.lap("decide." + it.Model)
			st.decided(it.Model, d.Verdict, d.Stats)
		}

		item, err := json.Marshal(res)
		if err != nil {
			return st, err
		}
		var back serve.BatchResult
		if err := json.Unmarshal(item, &back); err != nil {
			return st, err
		}
		back.ID = it.ID
		resp.Results = append(resp.Results, back)
		st.render += w.lap("render.json")
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return st, err
	}
	st.render += w.lap("render.json")
	if tr != nil {
		tr.span("replay", "request", tidReplay, start, w.last.Sub(start), map[string]any{"req": req, "bytes": len(out)})
	}
	return st, nil
}

// agrees checks the replay reached the verdicts the daemon sent.
func (s stageTimes) agrees(resp []byte) error {
	vs, err := parseVerdicts(resp)
	if err != nil {
		return err
	}
	for i, v := range vs {
		if v != s.verdicts[i] {
			return fmt.Errorf("%s: daemon says %s, in-process replay %s", models[i], v, s.verdicts[i])
		}
	}
	return nil
}
