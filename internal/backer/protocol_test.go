package backer

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/trace"
)

// recordingInjector answers "no fault" at every decision point and
// records the protocol actions it was consulted about — the observation
// half of the Injector contract.
type recordingInjector struct {
	reconciles [][2]dag.Node // crossing edges offered a reconcile
	flushes    []dag.Node    // crossed nodes offered a flush
}

func (r *recordingInjector) Validate(*sched.Schedule) error { return nil }

func (r *recordingInjector) SkipReconcileAt(src, dst dag.Node) bool {
	r.reconciles = append(r.reconciles, [2]dag.Node{src, dst})
	return false
}

func (r *recordingInjector) DelayReconcileAt(src, dst dag.Node) bool { return false }

func (r *recordingInjector) SkipFlushAt(dst dag.Node) bool {
	r.flushes = append(r.flushes, dst)
	return false
}

func (r *recordingInjector) CrashCacheAt(dag.Node, int, sched.Tick) bool { return false }

func (r *recordingInjector) CorruptReadAt(_ dag.Node, v trace.Value) (trace.Value, bool) {
	return v, false
}

// TestHealthyRunCoversEveryCrossingEdge is the protocol-coverage
// property: in a fault-free work-stealing run, every crossing edge gets
// a reconcile before it and every crossed node a flush after, exactly
// once each, and the resulting trace is location consistent. Swept over
// P ∈ {1, 2, 4, 8} with seeded randomness.
func TestHealthyRunCoversEveryCrossingEdge(t *testing.T) {
	for _, P := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(100 + P)))
		for trial := 0; trial < 25; trial++ {
			c := randomMemComputation(rng, 24, 2)
			rec := &recordingInjector{}
			res, err := RunWorkStealing(c, P, rng, rec)
			if err != nil {
				t.Fatalf("P=%d trial %d: %v", P, trial, err)
			}
			s := res.Schedule

			// The crossing edges of the schedule BACKER actually ran.
			wantEdges := make(map[[2]dag.Node]int)
			wantFlushes := make(map[dag.Node]int)
			for _, u := range s.Order {
				crossed := false
				for _, v := range c.Dag().Preds(u) {
					if s.Proc[v] != s.Proc[u] {
						wantEdges[[2]dag.Node{v, u}]++
						crossed = true
					}
				}
				if crossed {
					wantFlushes[u]++
				}
			}

			gotEdges := make(map[[2]dag.Node]int)
			for _, e := range rec.reconciles {
				gotEdges[e]++
			}
			gotFlushes := make(map[dag.Node]int)
			for _, u := range rec.flushes {
				gotFlushes[u]++
			}
			if len(gotEdges) != len(wantEdges) {
				t.Fatalf("P=%d trial %d: reconciled %d distinct crossing edges, schedule has %d",
					P, trial, len(gotEdges), len(wantEdges))
			}
			for e, n := range wantEdges {
				if gotEdges[e] != n {
					t.Fatalf("P=%d trial %d: edge %v->%v reconciled %d times, want %d",
						P, trial, e[0], e[1], gotEdges[e], n)
				}
			}
			for u, n := range wantFlushes {
				if gotFlushes[u] != n {
					t.Fatalf("P=%d trial %d: node %v flushed %d times, want %d",
						P, trial, u, gotFlushes[u], n)
				}
			}
			if len(gotFlushes) != len(wantFlushes) {
				t.Fatalf("P=%d trial %d: flushed %d distinct nodes, want %d",
					P, trial, len(gotFlushes), len(wantFlushes))
			}
			if res.Stats.CrossEdges != len(rec.reconciles) {
				t.Fatalf("P=%d trial %d: Stats.CrossEdges=%d but %d reconcile decisions",
					P, trial, res.Stats.CrossEdges, len(rec.reconciles))
			}

			if !checker.VerifyLC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
				t.Fatalf("P=%d trial %d: healthy BACKER run violates LC", P, trial)
			}
		}
	}
}

// TestFaultsValidateRejectsSilentNoOp pins the fix for the old footgun:
// nonzero probabilities with a nil Rng used to silently disable all
// faults; now the run refuses to start.
func TestFaultsValidateRejectsSilentNoOp(t *testing.T) {
	c := randomMemComputation(rand.New(rand.NewSource(1)), 12, 2)
	s, err := sched.ListSchedule(c, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, &Faults{SkipReconcile: 0.5}); err == nil {
		t.Fatal("Run accepted Faults with nonzero probability and nil Rng")
	}
	if _, err := Run(s, &Faults{SkipFlush: 1.5, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("Run accepted fault probability outside [0, 1]")
	}
	// The valid configurations still run.
	if _, err := Run(s, &Faults{}); err != nil {
		t.Fatalf("zero-probability Faults rejected: %v", err)
	}
	var typedNil *Faults
	if _, err := Run(s, typedNil); err != nil {
		t.Fatalf("typed-nil *Faults rejected: %v", err)
	}
}
