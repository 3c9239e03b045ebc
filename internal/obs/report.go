package obs

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"sync"
	"time"
)

// Report is the machine-readable summary a CLI writes with -report: a
// stable JSON shape (validated in CI by scripts/report-check.sh against
// testdata/report.schema.json) that captures what the process decided
// and what it cost, suitable for trajectory diffing under benchmarks/.
type Report struct {
	// Tool is the CLI name (ccmc, verify, backersim, lattice, enumerate).
	Tool string `json:"tool"`
	// Args are the raw command-line arguments the tool ran with.
	Args []string `json:"args"`
	// Start is the wall-clock start of the session.
	Start time.Time `json:"start"`
	// WallMS and CPUMS are the session's wall-clock and user-CPU time in
	// milliseconds. CPU time is the process's user time, summed over its
	// threads, from getrusage(RUSAGE_SELF); it reads 0 on platforms
	// without getrusage.
	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms"`
	// ExitCode is the code the process exited with (0/1/2/3 convention).
	ExitCode int `json:"exit_code"`
	// Runs summarizes every recorded decision run, in completion order.
	Runs []RunReport `json:"runs"`
	// Events aggregates the discrete event stream.
	Events EventCounts `json:"events"`
}

// RunReport is the summary of one RunStart/RunEnd pair.
type RunReport struct {
	Name    string  `json:"name"`
	Outcome string  `json:"outcome"`
	WallMS  float64 `json:"wall_ms"`
	// The run's final counters, inlined; zero for producers that keep
	// none.
	Stats
}

// EventCounts aggregates the discrete events of a session.
type EventCounts struct {
	GovernorsFired int64 `json:"governors_fired"`
	MemoFreezes    int64 `json:"memo_freezes"`
	RootsSkipped   int64 `json:"roots_skipped"`
	FaultsInjected int64 `json:"faults_injected"`
	ShrinkSteps    int64 `json:"shrink_steps"`
	PlansDone      int64 `json:"plans_done"`
	PlanViolations int64 `json:"plan_violations"`
	// PanicsRecovered counts handler panics the serving stack's
	// recovery middleware turned into completed 500 exchanges.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Fleet-dispatch counters: shard batch attempts that failed and
	// were requeued, hedged re-dispatches, shards abandoned after
	// retries exhausted (each one degrades the merged verdict), and
	// replica circuit-breaker state changes.
	ShardRetries int64 `json:"shard_retries"`
	ShardHedges  int64 `json:"shard_hedges"`
	ShardsLost   int64 `json:"shards_lost"`
	BreakerFlips int64 `json:"breaker_flips"`
	// Streaming-verification counters: trace streams completed, node
	// events they ingested, stable violations proved mid-stream, and
	// streams degraded by the buffer-overflow policy.
	StreamsDone         int64 `json:"streams_done"`
	TraceEventsIngested int64 `json:"trace_events_ingested"`
	StreamViolations    int64 `json:"stream_violations"`
	StreamOverruns      int64 `json:"stream_overruns"`
	// Decisions counts completed runs by run name. For the decision
	// CLIs run names are model names (SC … TSO, RA, CAUSAL), making
	// this the report-side twin of the ccmd /statsz per-model counters;
	// experiment producers land under their run labels ("star WN").
	Decisions map[string]int64 `json:"decisions"`
}

// ReportCollector is the recorder behind -report: it keeps the
// per-run summaries and the decisions by run label itself, renders
// the events block from its Totals, and is finalized by Finish.
type ReportCollector struct {
	totals    Totals
	mu        sync.Mutex
	rep       Report
	open      map[string]time.Time
	decisions map[string]int64
	cpu0      float64
	closed    bool
}

// NewReportCollector starts a collector for the given tool invocation.
func NewReportCollector(tool string, args []string) *ReportCollector {
	return &ReportCollector{
		rep:       Report{Tool: tool, Args: args, Start: time.Now(), Runs: []RunReport{}},
		open:      make(map[string]time.Time),
		decisions: make(map[string]int64),
		cpu0:      cpuSeconds(),
	}
}

// Record folds one event into the report.
func (c *ReportCollector) Record(ev Event) {
	c.totals.Record(ev)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case RunStart:
		c.open[ev.Run] = ev.Time
	case RunEnd:
		rr := RunReport{Name: ev.Run, Outcome: ev.Str}
		if start, ok := c.open[ev.Run]; ok {
			rr.WallMS = float64(ev.Time.Sub(start)) / float64(time.Millisecond)
			delete(c.open, ev.Run)
		}
		if ev.Stats != nil {
			rr.Stats = *ev.Stats
		}
		c.rep.Runs = append(c.rep.Runs, rr)
		c.decisions[ev.Run]++
	}
}

// Finish stamps the session totals and returns the finished report.
// Further events are still folded in if they arrive (harmless), but
// the returned snapshot is complete.
func (c *ReportCollector) Finish(exitCode int) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.rep.WallMS = float64(time.Since(c.rep.Start)) / float64(time.Millisecond)
		c.rep.CPUMS = (cpuSeconds() - c.cpu0) * 1000
		c.closed = true
	}
	c.rep.ExitCode = exitCode
	snap := c.rep
	snap.Runs = append([]RunReport(nil), c.rep.Runs...)
	snap.Events = c.totals.Snapshot().Events
	snap.Events.Decisions = maps.Clone(c.decisions)
	return &snap
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (0644, truncating).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
