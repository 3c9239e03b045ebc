package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The traced run. Each workload's traced run reports every per-layer
// metric: its own layers at full size, and the other workloads' layers
// from a small probe (the serve path over a few hundred check-miss
// pairs, the sweep and the fixpoint at n = 4), so that every metric is
// measured on every run. Spans are kept in memory and written as a
// Chrome trace_event file when the run ends.

// tracer collects complete ("X") trace events.
type tracer struct {
	start  time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the tracer started
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// span records one finished span on track tid. Spans on one track nest
// by time; args carry the request a span belongs to.
func (t *tracer) span(name, cat string, tid int, start time.Time, d time.Duration, args map[string]any) {
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start.Sub(t.start).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		Pid: 1, Tid: tid, Args: args,
	})
}

// timed runs f as a span and returns its duration.
func (t *tracer) timed(name string, tid int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.span(name, "stage", tid, start, d, nil)
	return d
}

// adopt appends the spans of a tracer that started at start.
func (t *tracer) adopt(events []traceEvent, start time.Time) {
	shift := float64(start.Sub(t.start).Nanoseconds()) / 1e3
	for _, e := range events {
		e.Ts += shift
		t.events = append(t.events, e)
	}
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Span tracks (trace_event thread ids).
const (
	tidPhases   = iota // the run's phases
	tidExchange        // sampled /v1/check exchanges
	tidReplay          // their in-process replays, stage by stage
	tidCLI             // lattice processes
	tidStages          // experiment stages, timed in a child process
)

func traceLattice(cfg config, tr *tracer) (outcome, error) {
	o := outcome{metrics: map[string]float64{}}
	if err := traceServeProbe(cfg, tr, &o); err != nil {
		return o, err
	}
	traceProbes(cfg, tr, &o, cfg.sweepN, cfg.probeN)
	return o, nil
}

func traceStar(cfg config, tr *tracer) (outcome, error) {
	o := outcome{metrics: map[string]float64{}}
	if err := traceServeProbe(cfg, tr, &o); err != nil {
		return o, err
	}
	traceProbes(cfg, tr, &o, cfg.probeN, cfg.starN)
	return o, nil
}

// traceServeProbe is the serve-path trace at probe size.
func traceServeProbe(cfg config, tr *tracer, o *outcome) error {
	t := missTraffic(cfg.seed, cfg.probeWarmup, cfg.probeSample+cfg.probePairs)
	return traceServer(cfg, tr, t, cfg.probeSample, cfg.probeSeconds, o)
}

// traceProbes runs the sweep and star traces at the given node bounds.
func traceProbes(cfg config, tr *tracer, o *outcome, sweepN, starN int) {
	traceExperiment(cfg, tr, o, latticeWorkload(sweepN, 1), "sweep", sweepN,
		func(m map[string]float64) float64 {
			return m["sweep.enumerate_ms"] + m["sweep.observers_ms"] + m["sweep.pattern_decide_ms"] +
				m["sweep.aux_ms"] + m["sweep.witnesses_ms"]
		})
	traceExperiment(cfg, tr, o, starWorkload(starN), "star", starN,
		func(m map[string]float64) float64 {
			return m["star.universe_ms"] + m["star.constructible_ms"] + m["star.compare_ms"]
		})
}

// traceExperiment traces one lattice experiment: the CLI runs it whole
// and serially (w), a fresh child process times its stages through the
// layers' public functions, and what the stages do not cover of the
// CLI's wall time is the group's unattributed_ms. The child is fresh so
// the stages run in the same process state the CLI does, not in a heap
// the serve-path trace has just churned.
func traceExperiment(cfg config, tr *tracer, o *outcome, w cliWorkload, kind string, n int, attributed func(map[string]float64) float64) {
	o.attempted += 2 // the CLI run and the stage replay
	cli, err := runCLI(cfg.root, cfg.binary("lattice"), w.args...)
	if err == nil {
		err = w.check(cli.out)
	}
	if err != nil {
		o.fail(true, "%s trace: %v", kind, err)
	}
	tr.span("lattice "+strings.Join(w.args, " "), "process", tidCLI, time.Now().Add(-cli.wall), cli.wall, nil)

	m, err := stagesInChild(cfg.root, kind, n, tr)
	if err != nil {
		o.fail(true, "%s trace: %v", kind, err)
	}
	for k, v := range m {
		o.metrics[k] = v
	}
	o.metrics[kind+".unattributed_ms"] = ms(cli.wall) - attributed(m)
}

// checkPattern checks one membership pattern (bit i = models[i]) against
// the lattice inclusions.
func checkPattern(p uint16) error {
	for _, inc := range inclusions {
		if p&(1<<inc[0]) != 0 && p&(1<<inc[1]) == 0 {
			return fmt.Errorf("in %s but not in %s", models[inc[0]], models[inc[1]])
		}
	}
	return nil
}
