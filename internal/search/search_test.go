package search_test

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/search"
)

// Unit tests of the engine on hand-built specs, exercised at every
// worker setting so `go test -race` sweeps the parallel path.

func workersSweep() []int { return []int{0, 1, 2, 4} }

// unconstrainedSpec: any topological sort works.
func unconstrainedSpec(g *dag.Dag) search.Spec {
	return search.Spec{
		Dag:       g,
		NumSlots:  0,
		WriteSlot: func(dag.Node) int { return -1 },
		Allowed:   func(int, dag.Node) ([]dag.Node, bool) { return nil, false },
	}
}

func TestRunEmptyDag(t *testing.T) {
	res := search.Run(unconstrainedSpec(dag.New(0)), search.Options{})
	if !res.Found || !res.Exhausted || len(res.Order) != 0 {
		t.Fatalf("empty dag: %+v", res)
	}
}

func TestRunUnconstrained(t *testing.T) {
	for _, w := range workersSweep() {
		g := dag.Grid(3, 3)
		res := search.Run(unconstrainedSpec(g), search.Options{Workers: w})
		if !res.Found || !res.Exhausted {
			t.Fatalf("workers=%d: %+v", w, res)
		}
		if !g.IsTopoSort(res.Order) {
			t.Fatalf("workers=%d: witness %v is not a topological sort", w, res.Order)
		}
	}
}

// twoWriterSpec: nodes 0 and 1 are parallel writers to one slot, node
// 2 reads and must observe `want`.
func twoWriterSpec(want dag.Node) (*dag.Dag, search.Spec) {
	g := dag.New(3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	spec := search.Spec{
		Dag:      g,
		NumSlots: 1,
		WriteSlot: func(u dag.Node) int {
			if u == 0 || u == 1 {
				return 0
			}
			return -1
		},
		Allowed: func(_ int, u dag.Node) ([]dag.Node, bool) {
			if u == 2 {
				return []dag.Node{want}, true
			}
			return nil, false
		},
	}
	return g, spec
}

func TestRunPicksRequiredWriter(t *testing.T) {
	for _, want := range []dag.Node{0, 1} {
		g, spec := twoWriterSpec(want)
		res := search.Run(spec, search.Options{})
		if !res.Found {
			t.Fatalf("want writer %d: not found", want)
		}
		if !g.IsTopoSort(res.Order) {
			t.Fatalf("bad witness %v", res.Order)
		}
		// The wanted writer must be the later of the two.
		pos := map[dag.Node]int{}
		for i, u := range res.Order {
			pos[u] = i
		}
		if pos[want] < pos[1-want] {
			t.Fatalf("witness %v places %d before %d", res.Order, 1-want, want)
		}
	}
}

func TestRunInfeasibleConstraint(t *testing.T) {
	// The read demands ⊥ but a writer precedes it in the dag: static
	// filtering must reject without exploring any state.
	g := dag.New(2)
	g.MustAddEdge(0, 1)
	spec := search.Spec{
		Dag:      g,
		NumSlots: 1,
		WriteSlot: func(u dag.Node) int {
			if u == 0 {
				return 0
			}
			return -1
		},
		Allowed: func(_ int, u dag.Node) ([]dag.Node, bool) {
			if u == 1 {
				return []dag.Node{dag.None}, true
			}
			return nil, false
		},
	}
	res := search.Run(spec, search.Options{})
	if res.Found || !res.Exhausted {
		t.Fatalf("infeasible spec: %+v", res)
	}
	if res.Stats.States != 0 {
		t.Fatalf("static rejection explored %d states", res.Stats.States)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	// A 4x4 grid with no constraints succeeds on the first dive, but a
	// budget of 1 cannot reach the leaf (16 states needed).
	g := dag.Grid(4, 4)
	res := search.Run(unconstrainedSpec(g), search.Options{Budget: 1})
	if res.Found {
		t.Fatal("found a 16-node witness within 1 state")
	}
	if res.Exhausted {
		t.Fatal("budget=1 claimed an exhaustive search")
	}
	// An ample budget decides it.
	res = search.Run(unconstrainedSpec(g), search.Options{Budget: 1 << 20})
	if !res.Found || !res.Exhausted {
		t.Fatalf("budgeted success: %+v", res)
	}
}

func TestRunStatsPopulated(t *testing.T) {
	g := dag.Grid(3, 3)
	res := search.Run(unconstrainedSpec(g), search.Options{Workers: 1})
	if res.Stats.States < 9 {
		t.Fatalf("stats.States = %d, want >= 9", res.Stats.States)
	}
	if res.Stats.Workers != 1 || res.Stats.Roots != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

// TestEmptyStateCountedOncePerRun: the root loop counts the empty state
// once per run, whatever the worker count, and each root as the child
// state it is. Both roots of the two-writer instance are refuted by the
// closure prune as soon as they are placed, so the counts do not
// depend on the schedule.
func TestEmptyStateCountedOncePerRun(t *testing.T) {
	spec := unsatTwoReaderSpec(2)
	for _, w := range []int{1, 2} {
		res := search.Run(spec, search.Options{Workers: w})
		if res.Found || !res.Exhausted || res.Stats.Workers != w {
			t.Fatalf("workers=%d: %+v", w, res)
		}
		if st := res.Stats; st.States != 3 || st.Pruned != 2 || st.Memoized != 3 {
			t.Errorf("workers=%d: %d states, %d pruned, %d memoized; want 3, 2, 3", w, st.States, st.Pruned, st.Memoized)
		}
	}
	for lo := 0; lo < 2; lo++ {
		res := search.Run(spec, search.Options{Workers: 1, RootLo: lo, RootHi: lo + 1})
		if st := res.Stats; res.Found || !res.Exhausted || st.States != 2 || st.Pruned != 1 {
			t.Errorf("shard [%d,%d): %+v", lo, lo+1, res)
		}
	}
}

func TestAssignments(t *testing.T) {
	var got [][]dag.Node
	complete := search.Assignments([][]dag.Node{{0, 1}, {5}, {7, 8}}, func(a []dag.Node) bool {
		got = append(got, append([]dag.Node(nil), a...))
		return true
	})
	if !complete {
		t.Fatal("full enumeration reported early stop")
	}
	want := [][]dag.Node{{0, 5, 7}, {0, 5, 8}, {1, 5, 7}, {1, 5, 8}}
	if len(got) != len(want) {
		t.Fatalf("got %d assignments, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("assignment %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestAssignmentsEdgeCases(t *testing.T) {
	calls := 0
	if !search.Assignments(nil, func(a []dag.Node) bool { calls++; return len(a) == 0 }) {
		t.Fatal("zero domains must enumerate the empty assignment and complete")
	}
	if calls != 1 {
		t.Fatalf("zero domains called fn %d times, want 1", calls)
	}
	calls = 0
	if !search.Assignments([][]dag.Node{{1, 2}, {}}, func([]dag.Node) bool { calls++; return true }) {
		t.Fatal("empty domain must complete")
	}
	if calls != 0 {
		t.Fatalf("empty domain called fn %d times, want 0", calls)
	}
	calls = 0
	if search.Assignments([][]dag.Node{{1, 2, 3}}, func([]dag.Node) bool { calls++; return calls < 2 }) {
		t.Fatal("early stop reported complete")
	}
	if calls != 2 {
		t.Fatalf("early stop called fn %d times, want 2", calls)
	}
}
