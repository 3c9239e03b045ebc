// Benchmark harness: one benchmark per figure/experiment of the paper,
// per the index in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks double as regeneration scripts: custom metrics carry
// the experiment's result (e.g. pairs checked, violations found,
// speedup), and each benchmark fails if the paper's claim does not
// hold, so `-bench` doubles as a slow correctness sweep.
package ccm

import (
	"math/rand"
	"testing"

	"repro/internal/backer"
	"repro/internal/checker"
	"repro/internal/cilk"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/enum"
	"repro/internal/expt"
	"repro/internal/memmodel"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/paperfig"
	"repro/internal/proccentric"
	"repro/internal/sched"
	"repro/internal/trace"
)

// E1 — Figure 1: the full lattice machine-checked over the exhaustive
// 3-node universe (every inclusion; strictness where witnesses fit).
func BenchmarkFig1Lattice3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := expt.RunLattice(3, 1)
		if !rep.AllOK() {
			b.Fatalf("lattice mismatch:\n%s", rep)
		}
		b.ReportMetric(float64(rep.Pairs), "pairs")
	}
}

// E1 — Figure 1 at 4 nodes: all strictness and incomparability edges,
// including LC ⊊ NN (Figure 4 witness) and NW vs WN incomparability
// (Figure 2/3 witnesses).
func BenchmarkFig1Lattice4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := expt.RunLattice(4, 1)
		if !rep.AllOK() {
			b.Fatalf("lattice mismatch:\n%s", rep)
		}
		b.ReportMetric(float64(rep.Pairs), "pairs")
	}
}

// E2 — Figure 2: the witness pair is in WW and NW but not WN or NN.
func BenchmarkFig2Witness(b *testing.B) {
	fx := paperfig.Figure2()
	for i := 0; i < b.N; i++ {
		if !memmodel.WW.Contains(fx.Comp, fx.Obs) || !memmodel.NW.Contains(fx.Comp, fx.Obs) ||
			memmodel.WN.Contains(fx.Comp, fx.Obs) || memmodel.NN.Contains(fx.Comp, fx.Obs) {
			b.Fatal("Figure 2 memberships wrong")
		}
	}
}

// E3 — Figure 3: the mirror witness is in WW and WN but not NW or NN.
func BenchmarkFig3Witness(b *testing.B) {
	fx := paperfig.Figure3()
	for i := 0; i < b.N; i++ {
		if !memmodel.WW.Contains(fx.Comp, fx.Obs) || !memmodel.WN.Contains(fx.Comp, fx.Obs) ||
			memmodel.NW.Contains(fx.Comp, fx.Obs) || memmodel.NN.Contains(fx.Comp, fx.Obs) {
			b.Fatal("Figure 3 memberships wrong")
		}
	}
}

// E4 — Figure 4: NN is not constructible. The prefix pair is in NN but
// fails to extend across non-writing final nodes.
func BenchmarkFig4NonConstructibility(b *testing.B) {
	fx := paperfig.Figure4()
	ops := computation.AllOps(1)
	for i := 0; i < b.N; i++ {
		if !memmodel.NN.Contains(fx.Prefix, fx.PrefixObs) {
			b.Fatal("prefix must be in NN")
		}
		if _, ok := memmodel.ConstructibleAtAug(memmodel.NN, fx.Prefix, fx.PrefixObs, ops); ok {
			b.Fatal("NN must fail the augmentation criterion")
		}
	}
}

// E5 — Theorem 19: SC and LC are complete, monotonic and constructible
// over the exhaustive universe.
func BenchmarkTheorem19Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []memmodel.Model{memmodel.SC, memmodel.LC} {
			rep := expt.RunProperties(m, 3, 1)
			if !rep.Complete || !rep.Monotonic || !rep.ConstructibleAug {
				b.Fatalf("Theorem 19 failed:\n%s", rep)
			}
			b.ReportMetric(float64(rep.Pairs), "pairs")
		}
	}
}

// E6 — Theorem 21: NN is stronger than every Q-dag consistency model,
// checked over the exhaustive 3-node universe for the four named
// predicates.
func BenchmarkTheorem21NNStrongest(b *testing.B) {
	models := []memmodel.Model{memmodel.NW, memmodel.WN, memmodel.WW}
	for i := 0; i < b.N; i++ {
		checked := 0
		enum.EachPair(3, 1, func(c *computation.Computation, o *observer.Observer) bool {
			if !memmodel.NN.Contains(c, o) {
				return true
			}
			checked++
			for _, m := range models {
				if !m.Contains(c, o) {
					b.Fatalf("NN pair outside %s: %v / %v", m.Name(), c, o)
				}
			}
			return true
		})
		b.ReportMetric(float64(checked), "NN-pairs")
	}
}

// E7 — Theorem 23: the constructible version of NN equals LC on the
// interior of the 4-node universe (with LC ⊆ NN* ⊆ survivors, interior
// equality is a proof for those sizes).
func BenchmarkTheorem23NNStar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := expt.RunStar(memmodel.NN, 4, 1, nil)
		if rep.FirstMismatch != "" {
			b.Fatalf("NN* ≠ LC: %s", rep.FirstMismatch)
		}
		total := 0
		for _, k := range rep.StarPairs {
			total += k
		}
		b.ReportMetric(float64(total), "survivors")
	}
}

// E8 — BACKER maintains LC: simulated executions of random computations
// under work stealing, post-mortem verified. The metric counts verified
// executions per iteration; any violation fails the benchmark.
func BenchmarkBackerLC(b *testing.B) {
	rng := rand.New(rand.NewSource(2024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := randomMemComputation(rng, 40, 2)
		res, err := backer.RunWorkStealing(c, 4, rng, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !checker.VerifyLC(res.Trace).OK {
			b.Fatalf("BACKER violated LC on %v", c)
		}
	}
	b.ReportMetric(1, "lc-verified/op")
}

// E9 — speedup shape of [BFJ+96]: T_P on a spawn tree for P = 1..32,
// reported as a speedup metric per sub-benchmark. The shape assertion
// (T_P within the Graham window [max(T1/P, T∞), T1/P + T∞ + slack])
// fails the bench if violated.
func BenchmarkBackerSpeedup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := dag.SpawnTree(8)
	ops := make([]computation.Op, g.NumNodes())
	for i := range ops {
		l := computation.Loc(rng.Intn(2))
		if rng.Intn(4) == 0 {
			ops[i] = computation.W(l)
		} else {
			ops[i] = computation.R(l)
		}
	}
	c := computation.MustFrom(g, ops, 2)
	t1 := float64(sched.Work(c, nil))
	tinf := float64(sched.Span(c, nil))

	for _, P := range []int{1, 2, 4, 8, 16, 32} {
		P := P
		b.Run(benchName("P", P), func(b *testing.B) {
			var totalSpeedup float64
			for i := 0; i < b.N; i++ {
				s, err := sched.WorkStealing(c, P, nil, rng)
				if err != nil {
					b.Fatal(err)
				}
				res, err := backer.Run(s, nil)
				if err != nil {
					b.Fatal(err)
				}
				if !checker.VerifyLC(res.Trace).OK {
					b.Fatal("sweep execution violated LC")
				}
				tp := float64(s.Makespan)
				if tp < tinf || tp*float64(P) < t1 {
					b.Fatalf("makespan %v below lower bounds", tp)
				}
				if tp > t1/float64(P)+tinf+float64(c.NumNodes()) {
					b.Fatalf("makespan %v above the Graham window", tp)
				}
				totalSpeedup += t1 / tp
			}
			b.ReportMetric(totalSpeedup/float64(b.N), "speedup")
		})
	}
}

// E10 — post-mortem verification throughput: SC and LC checking of
// traces produced by last-writer executions.
func BenchmarkPostmortem(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var traces []*trace.Trace
	for len(traces) < 32 {
		c := randomMemComputation(rng, 20, 2)
		order, err := c.Dag().TopoSort()
		if err != nil {
			continue
		}
		traces = append(traces, trace.FromObserver(c, observer.FromLastWriter(c, order)))
	}
	b.Run("LC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !checker.VerifyLC(traces[i%len(traces)]).OK {
				b.Fatal("last-writer trace must verify")
			}
		}
	})
	b.Run("SC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !checker.VerifySC(traces[i%len(traces)]).OK {
				b.Fatal("last-writer trace must verify")
			}
		}
	})
}

// Ablation — the polynomial LC decision procedure (SerializeLoc) versus
// direct Q-dag membership checking on identical pairs, to quantify the
// decision-procedure costs behind the experiments.
func BenchmarkDecisionProcedures(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	type pair struct {
		c *computation.Computation
		o *observer.Observer
	}
	var pairs []pair
	for len(pairs) < 16 {
		c := randomMemComputation(rng, 24, 2)
		order, err := c.Dag().TopoSort()
		if err != nil {
			continue
		}
		pairs = append(pairs, pair{c, observer.FromLastWriter(c, order)})
	}
	b.Run("LC-poly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if !memmodel.LC.Contains(p.c, p.o) {
				b.Fatal("last-writer pair must be LC")
			}
		}
	})
	b.Run("SC-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if !memmodel.SC.Contains(p.c, p.o) {
				b.Fatal("last-writer pair must be SC")
			}
		}
	})
	b.Run("NN-triples", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if !memmodel.NN.Contains(p.c, p.o) {
				b.Fatal("last-writer pair must be NN")
			}
		}
	})
}

// E11 — online memories: throughput of the Serial (SC) and online
// BACKER (LC) algorithms, with model membership asserted per run.
func BenchmarkOnlineMemories(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	c := randomMemComputation(rng, 30, 2)
	order, err := c.Dag().TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		mem := memory.NewSerial()
		for i := 0; i < b.N; i++ {
			o, err := memory.Run(mem, c, order)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && !memmodel.SC.Contains(c, o) {
				b.Fatal("serial memory left SC")
			}
		}
	})
	b.Run("backer-online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mem := memory.NewBacker(4, rng)
			o, err := memory.Run(mem, c, order)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && !memmodel.LC.Contains(c, o) {
				b.Fatal("online BACKER left LC")
			}
		}
	})
	b.Run("universal-LC", func(b *testing.B) {
		small := randomMemComputation(rng, 8, 1)
		smallOrder, err := small.Dag().TopoSort()
		if err != nil {
			b.Fatal(err)
		}
		mem := memory.NewUniversal(memmodel.LC)
		for i := 0; i < b.N; i++ {
			if _, err := memory.Run(mem, small, smallOrder); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E12 — litmus suite: classify every litmus outcome under SC (by both
// the checker and Lamport simulation) and LC; any disagreement with the
// textbook classification fails the bench.
func BenchmarkLitmus(b *testing.B) {
	suite := proccentric.All()
	for i := 0; i < b.N; i++ {
		for _, l := range suite {
			tr, err := l.Program.Trace(l.Outcome)
			if err != nil {
				b.Fatal(err)
			}
			if checker.VerifySC(tr).OK != l.AllowSC ||
				checker.VerifyLC(tr).OK != l.AllowLC ||
				l.Program.LamportAllows(l.Outcome) != l.AllowSC {
				b.Fatalf("%s misclassified", l.Name)
			}
		}
	}
	b.ReportMetric(float64(len(suite)), "litmus-tests")
}

// E12b — end-to-end Cilk program execution: fib on the BACKER machine,
// correctness and LC asserted per run.
func BenchmarkCilkFib(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	p, out := cilkFib(10)
	want := trace.Value(55)
	c := p.Computation()
	for _, P := range []int{1, 4, 16} {
		P := P
		b.Run(benchName("P", P), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cilk.Execute(p, P, rng, nil)
				if err != nil {
					b.Fatal(err)
				}
				var got trace.Value
				for u := 0; u < c.NumNodes(); u++ {
					if c.Op(dag.Node(u)).IsWriteTo(out) {
						got = res.WriteVal[dag.Node(u)]
					}
				}
				if got != want {
					b.Fatalf("fib(10) = %v", got)
				}
				if !checker.VerifyLC(res.Backer.Trace).OK {
					b.Fatal("fib trace not LC")
				}
			}
		})
	}
}

func cilkFib(n int) (*cilk.Program, computation.Loc) {
	var out computation.Loc
	var build func(t *cilk.Thread, res computation.Loc, k int)
	build = func(t *cilk.Thread, res computation.Loc, k int) {
		if k < 2 {
			t.Write(res, cilk.Const(trace.Value(k)))
			return
		}
		l1, l2 := t.AllocLoc(), t.AllocLoc()
		t.Spawn(func(c *cilk.Thread) { build(c, l1, k-1) })
		t.Spawn(func(c *cilk.Thread) { build(c, l2, k-2) })
		t.Sync()
		r1, r2 := t.Read(l1), t.Read(l2)
		t.Write(res, func(env *cilk.Env) trace.Value {
			return env.Value(r1) + env.Value(r2)
		})
	}
	p := cilk.New(0, func(t *cilk.Thread) {
		out = t.AllocLoc()
		build(t, out, n)
	})
	return p, out
}

// Section 7 census including the extension models (GSLC, Amnesiac):
// membership counts over the 3-node universe, with the extended lattice
// relations asserted.
func BenchmarkExtendedCensus(b *testing.B) {
	models := []memmodel.Model{
		memmodel.SC, memmodel.LC, memmodel.NN, memmodel.NW,
		memmodel.GSLC, memmodel.WN, memmodel.WW, memmodel.Amnesiac,
	}
	for i := 0; i < b.N; i++ {
		counts := make([]int, len(models))
		enum.EachPair(3, 1, func(c *computation.Computation, o *observer.Observer) bool {
			for j, m := range models {
				if m.Contains(c, o) {
					counts[j]++
				}
			}
			// Extended lattice spot checks per pair.
			if memmodel.NW.Contains(c, o) && !memmodel.GSLC.Contains(c, o) {
				b.Fatal("NW ⊆ GSLC violated")
			}
			if memmodel.GSLC.Contains(c, o) && !memmodel.WW.Contains(c, o) {
				b.Fatal("GSLC ⊆ WW violated")
			}
			if memmodel.Amnesiac.Contains(c, o) && !memmodel.WN.Contains(c, o) {
				b.Fatal("Amnesiac ⊆ WN violated")
			}
			return true
		})
		b.ReportMetric(float64(counts[4]), "gslc-pairs")
	}
}

// Scaling of the polynomial LC decision procedure: membership on
// last-writer pairs over spawn trees of growing size. The per-op time
// should grow polynomially (roughly cubically), not exponentially.
func BenchmarkLCScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	for _, levels := range []int{5, 7, 9} {
		g := dag.SpawnTree(levels)
		all := computation.AllOps(2)
		ops := make([]computation.Op, g.NumNodes())
		for i := range ops {
			ops[i] = all[rng.Intn(len(all))]
		}
		c := computation.MustFrom(g, ops, 2)
		order, err := c.Dag().TopoSort()
		if err != nil {
			b.Fatal(err)
		}
		o := observer.FromLastWriter(c, order)
		b.Run(benchName("nodes", c.NumNodes()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !memmodel.LC.Contains(c, o) {
					b.Fatal("last-writer pair must be LC")
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + "=" + digits
}

func randomMemComputation(rng *rand.Rand, n, locs int) *computation.Computation {
	g := dag.Random(rng, n, 0.25)
	ops := make([]computation.Op, n)
	for i := range ops {
		l := computation.Loc(rng.Intn(locs))
		switch rng.Intn(4) {
		case 0:
			ops[i] = computation.W(l)
		case 1:
			ops[i] = computation.N
		default:
			ops[i] = computation.R(l)
		}
	}
	return computation.MustFrom(g, ops, locs)
}
