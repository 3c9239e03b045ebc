package memmodel

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/computation"
	"repro/internal/observer"
)

// Decision benchmarks for every registered model, recorded by
// scripts/bench.sh and gated by scripts/bench-compare.sh. Each runs
// the governed front door (DecideByName) the CLIs and the daemon call,
// on one engine worker so the search stats and allocation counts are
// deterministic. The workload is the litmus corpus: IRIW (the 6-node
// independent-reads fixture) exercises the engine searches and the
// polynomial checks at the largest committed size, and SB adds the
// classic store-buffering shape every weak-memory discussion starts
// from.

func loadLitmus(b *testing.B, name string) (*computation.Computation, *observer.Observer) {
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

func BenchmarkDecide(b *testing.B) {
	fixtures := []string{"sb.ccm", "iriw.ccm"}
	comps := make([]*computation.Computation, len(fixtures))
	obs := make([]*observer.Observer, len(fixtures))
	for i, f := range fixtures {
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
