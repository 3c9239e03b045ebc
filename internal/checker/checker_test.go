package checker

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/paperfig"
	"repro/internal/search"
	"repro/internal/trace"
)

// sc and lc run the serialization checkers ungoverned.
func sc(tr *trace.Trace) Result { return VerifySC(context.Background(), tr, SearchOptions{}) }
func lc(tr *trace.Trace) Result { return VerifyLC(context.Background(), tr, SearchOptions{}) }

// model runs VerifyModel with a cap of tries candidates (0 = none).
func model(m memmodel.Model, tr *trace.Trace, tries int64) Result {
	return VerifyModel(context.Background(), m, tr, SearchOptions{Budget: tries})
}

func TestVerifySCSimpleChain(t *testing.T) {
	c := computation.New(1)
	a := c.AddNode(computation.W(0))
	b := c.AddNode(computation.R(0))
	c.MustAddEdge(a, b)
	o := observer.New(c)
	o.Set(0, b, a)
	tr := trace.FromObserver(c, o)
	res := sc(tr)
	if !res.Verdict.In() {
		t.Fatal("W->R trace must be SC")
	}
	if err := res.Observer.Validate(c); err != nil {
		t.Fatal(err)
	}
	if !memmodel.SC.Contains(c, res.Observer) {
		t.Fatal("witness observer not in SC")
	}
	// A stale read is not explainable at all (no candidate).
	tr.ReadVal[b] = trace.Undefined
	if sc(tr).Verdict.In() || lc(tr).Verdict.In() {
		t.Fatal("stale read past a write must be rejected")
	}
}

func TestVerifyDekkerTrace(t *testing.T) {
	fx := paperfig.Dekker()
	tr := trace.FromObserver(fx.Comp, fx.Obs)
	if sc(tr).Verdict.In() {
		t.Fatal("Dekker trace must not verify under SC")
	}
	res := lc(tr)
	if !res.Verdict.In() {
		t.Fatal("Dekker trace must verify under LC")
	}
	if !memmodel.LC.Contains(fx.Comp, res.Observer) {
		t.Fatal("LC witness observer not in LC")
	}
	// The witness explains the trace: re-deriving values from it must
	// reproduce every read.
	got := trace.FromObserver(fx.Comp, res.Observer)
	for u := range got.ReadVal {
		if fx.Comp.Op(dag.Node(u)).Kind == computation.Read && got.ReadVal[u] != tr.ReadVal[u] {
			t.Fatalf("witness does not explain read %d", u)
		}
	}
}

// Verify is VerifyLC then VerifySC, each run labelled under the
// recorder, and Relaxed is the Dekker trace's diagnosis: LC explains
// it, SC does not.
func TestVerifyRunsLCThenSC(t *testing.T) {
	fx := paperfig.Dekker()
	tr := trace.FromObserver(fx.Comp, fx.Obs)
	var runs []string
	rec := recordFunc(func(ev obs.Event) {
		if ev.Kind == obs.RunStart {
			runs = append(runs, ev.Run)
		}
	})
	v := Verify(context.Background(), tr, SearchOptions{Recorder: obs.WithRun(rec, "verify")})
	if !v.Relaxed() || !v.LC.Verdict.In() || !v.SC.Verdict.Out() {
		t.Fatalf("Dekker trace: LC %v, SC %v, relaxed %v; want explainable, VIOLATED, relaxed", v.LC.Verdict, v.SC.Verdict, v.Relaxed())
	}
	if want := []string{"LC", "LC", "SC", "SC", "SC"}; !slices.Equal(runs, want) {
		t.Fatalf("runs %v, want %v (LC's per-location searches, then SC's prechecks and joint search)", runs, want)
	}
	if lcOnly := lc(tr); lcOnly.Stats != v.LC.Stats || lcOnly.Observer.String() != v.LC.Observer.String() {
		t.Fatal("Verify's LC result differs from VerifyLC's")
	}
	undecided := Result{Verdict: search.VerdictInconclusive(search.StopBudget)}
	for _, w := range []Verdicts{{LC: v.LC, SC: v.LC}, {LC: v.SC, SC: v.SC}, {LC: v.LC, SC: undecided}, {LC: undecided, SC: v.SC}} {
		if w.Relaxed() {
			t.Fatalf("relaxed with LC %v and SC %v", w.LC.Verdict, w.SC.Verdict)
		}
	}
}

type recordFunc func(obs.Event)

func (f recordFunc) Record(ev obs.Event) { f(ev) }

func TestVerifyModelFigure4(t *testing.T) {
	fx := paperfig.Figure4()
	tr := trace.FromObserver(fx.Prefix, fx.PrefixObs)
	// The crossing trace is explainable under NN but not under LC.
	res := model(memmodel.NN, tr, 0)
	if !res.Verdict.In() {
		t.Fatal("crossing trace must verify under NN")
	}
	if !memmodel.NN.Contains(fx.Prefix, res.Observer) {
		t.Fatal("witness not in NN")
	}
	if lc(tr).Verdict.In() {
		t.Fatal("crossing trace must not verify under LC")
	}
	if !model(memmodel.LC, tr, 0).Verdict.Out() {
		t.Fatal("VerifyModel(LC) must agree with VerifyLC")
	}
}

func TestVerifyModelCap(t *testing.T) {
	// Many parallel reads of one of two same-valued writes: large
	// candidate product. A cap of 1 must report non-exhaustion when the
	// first assignment fails.
	c := computation.New(1)
	w1 := c.AddNode(computation.W(0))
	w2 := c.AddNode(computation.W(0))
	for i := 0; i < 4; i++ {
		r := c.AddNode(computation.R(0))
		c.MustAddEdge(w1, r)
		c.MustAddEdge(w2, r)
	}
	tr := trace.New(c)
	tr.WriteVal[w1] = 5
	tr.WriteVal[w2] = 5
	for u := 2; u < 6; u++ {
		tr.ReadVal[u] = 5
	}
	never := memmodel.Func("NEVER", func(*computation.Computation, *observer.Observer) bool { return false })
	res := model(never, tr, 1)
	if res.Verdict.In() {
		t.Fatal("NEVER verified")
	}
	if res.Verdict.Decided || res.Verdict.Reason != search.StopBudget || res.Stats.States != 1 {
		t.Fatalf("cap of 1 gave %v after %d candidates, want INCONCLUSIVE(budget) after 1", res.Verdict, res.Stats.States)
	}
}

func TestVerifySCBudgetNonExhaustive(t *testing.T) {
	// A wide computation with contradictory cross-location constraints:
	// the search must do real work, so a budget of 1 state cannot be
	// exhaustive.
	c := computation.New(2)
	var writes, reads []dag.Node
	for i := 0; i < 6; i++ {
		writes = append(writes, c.AddNode(computation.W(computation.Loc(i%2))))
	}
	for i := 0; i < 6; i++ {
		r := c.AddNode(computation.R(computation.Loc(i % 2)))
		reads = append(reads, r)
		c.MustAddEdge(writes[i], r)
	}
	tr := trace.New(c).UniqueWrites()
	for i, r := range reads {
		tr.ReadVal[r] = tr.WriteVal[writes[i]]
	}
	res := VerifySC(context.Background(), tr, SearchOptions{Budget: 1})
	if res.Verdict.In() {
		return // found instantly; fine
	}
	if res.Verdict.Decided {
		t.Fatal("budget=1 claimed exhaustive search on a 12-node instance")
	}
	// Unlimited budget decides it.
	if !sc(tr).Verdict.In() {
		t.Fatal("consistent trace rejected")
	}
}

func TestVerifyLCAmbiguousValues(t *testing.T) {
	// Two parallel writes storing the same value, one read seeing it:
	// the read has two candidates and the choice backtracking must
	// still succeed.
	c := computation.New(1)
	w1 := c.AddNode(computation.W(0))
	w2 := c.AddNode(computation.W(0))
	r := c.AddNode(computation.R(0))
	c.MustAddEdge(w1, r)
	c.MustAddEdge(w2, r)
	tr := trace.New(c)
	tr.WriteVal[w1] = 7
	tr.WriteVal[w2] = 7
	tr.ReadVal[r] = 7
	if !lc(tr).Verdict.In() {
		t.Fatal("ambiguous but consistent trace rejected")
	}
	// Make it unsatisfiable: the read wants a value neither write has.
	tr.ReadVal[r] = 9
	if lc(tr).Verdict.In() {
		t.Fatal("unsatisfiable trace accepted")
	}
}

func TestOrderExplains(t *testing.T) {
	c := computation.New(1)
	w := c.AddNode(computation.W(0))
	r := c.AddNode(computation.R(0))
	c.MustAddEdge(w, r)
	tr := trace.New(c).UniqueWrites()
	tr.ReadVal[r] = tr.WriteVal[w]
	if !OrderExplains(tr, []dag.Node{w, r}) {
		t.Fatal("correct order rejected")
	}
	tr.ReadVal[r] = trace.Undefined
	if OrderExplains(tr, []dag.Node{w, r}) {
		t.Fatal("stale read explained")
	}
	if OrderExplains(tr, []dag.Node{r, w}) {
		t.Fatal("non-topological order accepted")
	}
	bad := trace.New(c)
	bad.WriteVal[w] = trace.Undefined
	if OrderExplains(bad, []dag.Node{w, r}) {
		t.Fatal("invalid trace accepted")
	}
}

func TestVerifyInvalidTrace(t *testing.T) {
	c := computation.New(1)
	c.AddNode(computation.W(0))
	tr := trace.New(c)
	tr.WriteVal[0] = trace.Undefined
	if sc(tr).Verdict.In() || lc(tr).Verdict.In() {
		t.Fatal("invalid trace verified")
	}
	if model(memmodel.NN, tr, 0).Verdict.In() {
		t.Fatal("invalid trace verified by VerifyModel")
	}
}

func TestVerifyEmptyTrace(t *testing.T) {
	c := computation.New(2)
	tr := trace.New(c)
	if !sc(tr).Verdict.In() || !lc(tr).Verdict.In() {
		t.Fatal("empty trace must verify")
	}
}

// Property: for random computations and random LC observers, the trace
// derived from the observer verifies under LC, and if it verifies under
// SC then the SC witness also explains it. With unique write values the
// checkers must agree with direct model membership of the generating
// observer's trace-compatible completions.
func TestQuickCheckerSoundAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(7)
		locs := 1 + rng.Intn(2)
		g := dag.Random(rng, n, 0.3)
		all := computation.AllOps(locs)
		ops := make([]computation.Op, n)
		for i := range ops {
			ops[i] = all[rng.Intn(len(all))]
		}
		c := computation.MustFrom(g, ops, locs)
		order, err := c.Dag().TopoSort()
		if err != nil {
			return false
		}
		// SC-generated trace: must verify under both SC and LC.
		o := observer.FromLastWriter(c, order)
		tr := trace.FromObserver(c, o)
		if !sc(tr).Verdict.In() || !lc(tr).Verdict.In() {
			return false
		}
		// Tamper with one read, if there is one: replace its value with
		// a fresh value no write stores. Must fail everywhere.
		for u := 0; u < n; u++ {
			if c.Op(dag.Node(u)).Kind == computation.Read {
				tr.ReadVal[u] = 1 << 40
				if sc(tr).Verdict.In() || lc(tr).Verdict.In() {
					return false
				}
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: VerifySC agrees with exhaustive enumeration of SC observers
// compatible with the trace (soundness and completeness of the
// constrained search).
func TestQuickVerifySCAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5)
		g := dag.Random(rng, n, 0.3)
		all := computation.AllOps(1)
		ops := make([]computation.Op, n)
		for i := range ops {
			ops[i] = all[rng.Intn(len(all))]
		}
		c := computation.MustFrom(g, ops, 1)
		if observer.Count(c, 200) >= 200 {
			return true
		}
		// Random trace: unique writes, each read gets a random write's
		// value or Undefined.
		tr := trace.New(c).UniqueWrites()
		var writes []dag.Node
		for u := 0; u < n; u++ {
			if c.Op(dag.Node(u)).Kind == computation.Write {
				writes = append(writes, dag.Node(u))
			}
		}
		for u := 0; u < n; u++ {
			if c.Op(dag.Node(u)).Kind != computation.Read {
				continue
			}
			if len(writes) > 0 && rng.Intn(3) > 0 {
				tr.ReadVal[u] = tr.WriteVal[writes[rng.Intn(len(writes))]]
			} else {
				tr.ReadVal[u] = trace.Undefined
			}
		}
		// Brute force: any SC observer explaining the trace?
		brute := false
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if !memmodel.SC.Contains(c, o) {
				return true
			}
			match := true
			for u := 0; u < n; u++ {
				op := c.Op(dag.Node(u))
				if op.Kind != computation.Read {
					continue
				}
				w := o.Get(op.Loc, dag.Node(u))
				var v trace.Value
				if w == observer.Bottom {
					v = trace.Undefined
				} else {
					v = tr.WriteVal[w]
				}
				if v != tr.ReadVal[u] {
					match = false
					break
				}
			}
			if match {
				brute = true
				return false
			}
			return true
		})
		return sc(tr).Verdict.In() == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
