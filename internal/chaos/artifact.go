package chaos

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/backer"
	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/viz"
)

// Artifact file names inside an artifact directory.
const (
	PlanFile     = "plan.chaos"
	ScheduleFile = "schedule.sched"
	TraceFile    = "trace.trace"
	DotFile      = "computation.dot"
	ReportFile   = "report.txt"
)

// ModelVerdict is one model of the paper's lattice together with the
// post-mortem verdict for the broken trace: does the model still
// explain the execution that LC rejects?
type ModelVerdict struct {
	Model   string
	Verdict checker.Verdict
}

// Classify checks the trace against the model lattice: the
// serialization models SC and LC exactly, and the dag-consistent
// lattice NN, NW, WN, WW by observer enumeration capped at maxTries
// candidates per model (0 = unlimited — exponential, keep repros
// small). The interesting reading is on broken traces: when LC breaks,
// the weaker dag-consistent models say how broken the execution is —
// a skipped flush that merely reorders reads may keep WW while a lost
// write escapes the lattice entirely.
func Classify(ctx context.Context, tr *trace.Trace, opts checker.SearchOptions, maxTries int) []ModelVerdict {
	out := make([]ModelVerdict, 0, 6)
	out = append(out, ModelVerdict{Model: "SC", Verdict: checker.VerifySC(ctx, tr, opts).Verdict})
	out = append(out, ModelVerdict{Model: "LC", Verdict: checker.VerifyLC(ctx, tr, opts).Verdict})
	tries := checker.SearchOptions{Budget: int64(maxTries)}
	for _, m := range []memmodel.Model{memmodel.NN, memmodel.NW, memmodel.WN, memmodel.WW} {
		out = append(out, ModelVerdict{Model: m.Name(), Verdict: checker.VerifyModel(ctx, m, tr, tries).Verdict})
	}
	return out
}

// AutoNamed wraps a computation with generated symbol tables (nodes
// n0, n1, ...; locations l0, l1, ...) so anonymous simulator output can
// flow through the text codecs.
func AutoNamed(c *computation.Computation) *computation.Named {
	locs := make([]string, c.NumLocs())
	for l := range locs {
		locs[l] = fmt.Sprintf("l%d", l)
	}
	named := computation.NewNamed(locs...)
	for u := 0; u < c.NumNodes(); u++ {
		named.AddNode(fmt.Sprintf("n%d", u), c.Op(dag.Node(u)))
	}
	for _, e := range c.Dag().Edges() {
		named.Comp.MustAddEdge(e[0], e[1])
	}
	return named
}

// partialObserver lifts a run's read observations into an observer
// function (non-read entries stay ⊥), for rendering dashed "observes"
// edges in DOT output.
func partialObserver(c *computation.Computation, readObserved map[dag.Node]dag.Node) *observer.Observer {
	o := observer.New(c)
	for u, w := range readObserved {
		if w != observer.Bottom {
			o.Set(c.Op(u).Loc, u, w)
		}
	}
	return o
}

// WriteArtifact emits a self-contained postmortem bundle for a shrunk
// repro into dir (created if missing):
//
//	plan.chaos       the fault plan
//	schedule.sched   the schedule with its computation inline
//	trace.trace      the violating value trace
//	computation.dot  Graphviz DOT (processors colored, observations dashed)
//	report.txt       human-readable summary + model-lattice classification
//
// Every file is deterministic for a given repro, so artifacts can be
// diffed and replayed byte-for-byte.
func WriteArtifact(dir string, rep *Repro, class []ModelVerdict) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	named := AutoNamed(rep.Sched.Comp)
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{PlanFile, func(w io.Writer) error { return Format(w, rep.Plan) }},
		{ScheduleFile, func(w io.Writer) error { return sched.FormatSchedule(w, named, rep.Sched) }},
		{TraceFile, func(w io.Writer) error {
			nt := &trace.NamedTrace{Named: named, Trace: rep.Result.Trace}
			return nt.Format(w)
		}},
		{DotFile, func(w io.Writer) error {
			return viz.WriteDOT(w, rep.Sched.Comp, viz.Options{
				Schedule:  rep.Sched,
				Observer:  partialObserver(rep.Sched.Comp, rep.Result.ReadObserved),
				NodeNames: named.NodeName,
				Title:     "chaos repro",
			})
		}},
		{ReportFile, func(w io.Writer) error { return writeReport(w, rep, class) }},
	}
	for _, f := range files {
		if err := writeFile(filepath.Join(dir, f.name), f.write); err != nil {
			return fmt.Errorf("chaos: writing %s: %w", f.name, err)
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(w io.Writer, rep *Repro, class []ModelVerdict) error {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos repro: %d-event plan, %d nodes, P=%d\n",
		rep.Plan.Len(), rep.Sched.Comp.NumNodes(), rep.Sched.P)
	b.WriteString("plan:\n")
	for _, e := range rep.Plan.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "trace: %v\n", rep.Result.Trace)
	st := rep.Result.Stats
	fmt.Fprintf(&b, "stats: %d crossing edges, %d reconciles, %d flushes, %d faults injected\n",
		st.CrossEdges, st.Reconciles, st.Flushes, st.FaultCount())
	fmt.Fprintf(&b, "shrink: %d oracle runs\n", rep.OracleRuns)
	b.WriteString("model lattice classification:\n")
	for _, mv := range class {
		fmt.Fprintf(&b, "  %-3s %s\n", mv.Model+":", mv.Verdict)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Artifact is a postmortem bundle loaded back from disk.
type Artifact struct {
	Named *computation.Named
	Sched *sched.Schedule
	Plan  *Plan
	Trace *trace.Trace
}

// LoadArtifact reads the replayable parts of a bundle (plan, schedule,
// trace) and cross-validates that the trace was produced over the
// schedule's computation.
func LoadArtifact(dir string) (*Artifact, error) {
	sf, err := os.Open(filepath.Join(dir, ScheduleFile))
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	named, s, err := sched.ParseSchedule(sf)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", ScheduleFile, err)
	}
	pf, err := os.Open(filepath.Join(dir, PlanFile))
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	plan, err := Parse(pf)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", PlanFile, err)
	}
	tf, err := os.Open(filepath.Join(dir, TraceFile))
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	nt, err := trace.ParseTrace(tf)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", TraceFile, err)
	}
	if !nt.Trace.Comp.Equal(s.Comp) {
		return nil, fmt.Errorf("chaos: trace and schedule disagree on the computation")
	}
	return &Artifact{Named: named, Sched: s, Plan: plan, Trace: nt.Trace}, nil
}

// Replay runs the artifact's plan over its schedule and reports whether
// the produced trace matches the recorded one value-for-value — the
// determinism check behind `backersim -replay`.
func (a *Artifact) Replay() (*backer.Result, bool, error) {
	res, _, err := Run(a.Sched, a.Plan)
	if err != nil {
		return nil, false, err
	}
	return res, tracesEqual(res.Trace, a.Trace), nil
}

// tracesEqual compares two traces over the same computation value for
// value (write stores and read returns; other nodes carry none).
func tracesEqual(a, b *trace.Trace) bool {
	if a.Comp.NumNodes() != b.Comp.NumNodes() {
		return false
	}
	for u := 0; u < a.Comp.NumNodes(); u++ {
		switch a.Comp.Op(dag.Node(u)).Kind {
		case computation.Write:
			if a.WriteVal[u] != b.WriteVal[u] {
				return false
			}
		case computation.Read:
			if a.ReadVal[u] != b.ReadVal[u] {
				return false
			}
		}
	}
	return true
}
