package expt

import (
	"testing"

	"repro/internal/memmodel"
)

// BenchmarkLatticeSweep is the headline experiment benchmark: the full
// Figure 1 lattice check, exhaustively over the one-location universe.
// The unreduced/n=4 entry is the legacy per-edge path at the largest
// size it was ever benchmarked at; reduced/n=5 is the symmetry-reduced
// fused-pattern sweep one size up (a ~48× larger universe). Both run
// serially so the comparison is scheduling-free.
func BenchmarkLatticeSweep(b *testing.B) {
	b.Run("unreduced/n=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := RunLatticeParallel(4, 1, 1)
			if !rep.AllOK() {
				b.Fatalf("lattice mismatch:\n%s", rep)
			}
		}
	})
	b.Run("reduced/n=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := RunLatticeReduced(5, 1, 1, nil)
			if !rep.AllOK() {
				b.Fatalf("lattice mismatch:\n%s", rep)
			}
		}
	})
}

// BenchmarkStar is the Theorem 23 experiment behind `lattice -n 5
// -star NN`: the NN* fixpoint over the 4-node interior, its 5-node
// augmentations decided on the fly and the boundary counted over
// orbit-weighted representatives. survivors is the report's total.
func BenchmarkStar(b *testing.B) {
	b.Run("NN/n=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := RunStar(memmodel.NN, 5, 1, nil)
			if !rep.OK() {
				b.Fatalf("NN* ≠ LC:\n%s", rep)
			}
			b.ReportMetric(float64(rep.Star.NumPairs(-1)), "survivors")
		}
	})
}
