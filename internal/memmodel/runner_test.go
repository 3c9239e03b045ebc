package memmodel

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// TestRunnerReuseMatchesFresh holds search.Runner reuse to a fresh run.
// One Runner decides a shuffled sequence of specs that grow and shrink:
// the SC last-writer and TSO specs of every pair of the n ≤ 3
// two-location universe, of the litmus fixtures, of random24, and of
// seeded 12–20-node pairs whose observers come from independent
// per-location sorts (in LC, mostly out of SC), whose failed searches
// outgrow the memo table's first 64 slots. Each spec runs plain and
// under each governor: a state budget, a memo cap small enough to
// spill, sleep sets off, a root shard and an already-cancelled context.
// Every Result must equal a fresh search.RunContext's field for field,
// Stats included; with two workers, whose counters depend on the
// schedule, the answer, the witness and the frontier must. Each TSO
// spec keeps its own tsoCore; a second pass runs the same sequence
// with every TSO spec rebuilt just before its run by one shared core,
// whose event dag, closure and funcs each build reuses, and holds it to
// the fresh run of the spec's own core. The test lives here because
// internal/search cannot import the spec builders.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	type spec struct {
		name string
		spec search.Spec
		c    *computation.Computation // for a TSO spec, its pair
		o    *observer.Observer
	}
	var specs []spec
	add := func(name string, c *computation.Computation, o *observer.Observer) {
		o = o.Clone() // Enumerate reuses its observer, and the specs read theirs when they run
		specs = append(specs, spec{name: name + " SC", spec: lastWriterSpec(c, o, make([]dag.Node, c.NumLocs()*c.NumNodes()))})
		var hb hbCore
		if !hb.build(c, c.Closure(), o) {
			return
		}
		if s, feasible := tsoSpec(new(tsoCore), c, o); feasible {
			specs = append(specs, spec{name + " TSO", s, c, o})
		}
	}
	for n := 0; n <= 3; n++ {
		eachComputationLocal(n, 2, func(c *computation.Computation) {
			observer.Enumerate(c, func(o *observer.Observer) bool {
				add(fmt.Sprintf("%v / %v", c, o), c, o)
				return true
			})
		})
	}
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "litmus", "*.ccm"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no litmus fixtures: %v", err)
	}
	for _, f := range fixtures {
		c, o := loadLitmus(t, filepath.Base(f))
		add(filepath.Base(f), c, o)
	}
	c, o := random24(t)
	add("random24", c, o)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{12, 16, 20} {
		for i := 0; i < 8; i++ {
			g := dag.Random(rng, n, 0.1)
			ops := computation.AllOps(2)
			labels := make([]computation.Op, n)
			for u := range labels {
				labels[u] = ops[rng.Intn(len(ops))]
			}
			c := computation.MustFrom(g, labels, 2)
			o := observer.FromPerLocationSorts(c, [][]dag.Node{randomSort(rng, g), randomSort(rng, g)})
			add(fmt.Sprintf("per-location sorts n=%d #%d", n, i), c, o)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	variants := []struct {
		name string
		ctx  context.Context
		opts search.Options
	}{
		{"plain", context.Background(), search.Options{Workers: 1}},
		{"budget", context.Background(), search.Options{Workers: 1, Budget: 3}},
		{"memo cap", context.Background(), search.Options{Workers: 1, MaxMemoBytes: 100}},
		{"memo cap 1", context.Background(), search.Options{Workers: 1, MaxMemoBytes: 1}},
		{"no sleep", context.Background(), search.Options{Workers: 1, DisableSleep: true}},
		{"shard", context.Background(), search.Options{Workers: 1, RootLo: 1, RootHi: 2}},
		{"cancelled", cancelled, search.Options{Workers: 1}},
		{"two workers", context.Background(), search.Options{Workers: 2}},
	}
	type job struct {
		spec, variant int
		shared        bool // a TSO spec is built on the shared core
	}
	jobs := make([]job, 0, 2*len(specs)*len(variants))
	for si := range specs {
		for vi := range variants {
			jobs = append(jobs, job{si, vi, false})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for _, j := range jobs {
		jobs = append(jobs, job{j.spec, j.variant, true})
	}

	var r search.Runner
	var shared tsoCore
	spilled, stopped, grown := 0, 0, 0
	for _, j := range jobs {
		s, v := specs[j.spec], variants[j.variant]
		spec, core := s.spec, "its own"
		if j.shared && s.o != nil {
			spec, _ = tsoSpec(&shared, s.c, s.o)
			core = "a shared"
		}
		got := r.Run(v.ctx, spec, v.opts)
		want := search.RunContext(v.ctx, s.spec, v.opts)
		if v.opts.Workers > 1 {
			// Parallel splitting fixes the answer and the frontier, not
			// the work counters.
			got.Stats = search.Stats{Roots: got.Stats.Roots, Workers: got.Stats.Workers}
			want.Stats = search.Stats{Roots: want.Stats.Roots, Workers: want.Stats.Workers}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %s: reused Runner on %s core's spec\n%+v\nfresh run\n%+v", s.name, v.name, core, got, want)
		}
		if got.Stats.MemoSpilled > 0 {
			spilled++
		}
		if got.Stop == search.StopBudget {
			stopped++
		}
		if got.Stats.MemoSpilled == 0 && got.Stats.Memoized > 48 {
			grown++ // past ¾ of 64 slots: the table rehashed
		}
	}
	// The governors and the memo growth must each have happened
	// somewhere, or the test misses their reuse paths.
	if spilled == 0 || stopped == 0 || grown == 0 {
		t.Fatalf("%d runs spilled the memo, %d hit the budget and %d grew it; want some of each", spilled, stopped, grown)
	}
	t.Logf("%d specs × %d variants, %d memo spills, %d budget stops, %d memo growths", len(specs), len(variants), spilled, stopped, grown)
}

// randomSort returns a uniformly chosen next node at every step of
// Kahn's algorithm: a random topological sort of g.
func randomSort(rng *rand.Rand, g *dag.Dag) []dag.Node {
	n := g.NumNodes()
	indeg := make([]int, n)
	var ready []dag.Node
	for u := 0; u < n; u++ {
		if indeg[u] = g.InDegree(dag.Node(u)); indeg[u] == 0 {
			ready = append(ready, dag.Node(u))
		}
	}
	order := make([]dag.Node, 0, n)
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		u := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		order = append(order, u)
		for _, v := range g.Succs(u) {
			if indeg[v]--; indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return order
}

// tsoSpec is TSO's engine question for (c, o) on t, whose hb the
// caller has checked acyclic: the static checks, then the event dag
// under c's own labelling.
func tsoSpec(t *tsoCore, c *computation.Computation, o *observer.Observer) (search.Spec, bool) {
	if !t.check(c, c.Closure(), o, writersByLoc(nil, c)) {
		return search.Spec{}, false
	}
	return t.events(c, c.Closure(), o, c.Ops()), true
}
