package memmodel

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// Decision benchmarks for every registered model, recorded by
// scripts/bench.sh and gated by scripts/bench-compare.sh. Each runs
// the governed front door (DecideByName) the CLIs and the daemon call,
// on one engine worker so the search stats and allocation counts are
// deterministic. Two fixtures come from the litmus corpus: IRIW (the
// 6-node independent-reads fixture) exercises the engine searches and
// the polynomial checks at the largest committed size, and SB adds the
// classic store-buffering shape every weak-memory discussion starts
// from. The third, random24, is built here at the size the daemon's
// cache-missing traffic sends (12–24 nodes).

func loadLitmus(b testing.TB, name string) (*computation.Computation, *observer.Observer) {
	b.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "litmus", name))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	named, o, err := observer.ParsePair(f)
	if err != nil {
		b.Fatal(err)
	}
	return named.Comp, o
}

// random24 is a seeded 24-node, two-location computation with the
// last-writer observer of its topological sort. That observer is an SC
// witness, so every registered model decides In and runs its check to
// completion instead of stopping at the first violation.
func random24(b testing.TB) (*computation.Computation, *observer.Observer) {
	b.Helper()
	const n, locs = 24, 2
	rng := rand.New(rand.NewSource(1))
	g := dag.Random(rng, n, 0.25)
	ops := computation.AllOps(locs)
	labels := make([]computation.Op, n)
	for u := range labels {
		labels[u] = ops[rng.Intn(len(ops))]
	}
	c := computation.MustFrom(g, labels, locs)
	order, err := g.TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	return c, observer.FromLastWriter(c, order)
}

func BenchmarkDecide(b *testing.B) {
	fixtures := []string{"sb.ccm", "iriw.ccm", "random24"}
	comps := make([]*computation.Computation, len(fixtures))
	obs := make([]*observer.Observer, len(fixtures))
	for i, f := range fixtures {
		if f == "random24" {
			comps[i], obs[i] = random24(b)
			continue
		}
		comps[i], obs[i] = loadLitmus(b, f)
	}
	for _, name := range ModelNames() {
		for i, fixture := range fixtures {
			b.Run(name+"/"+fixture, func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					if _, err := DecideByName(context.Background(), name, comps[i], obs[i], SearchOptions{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
