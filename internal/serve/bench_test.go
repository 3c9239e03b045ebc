package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// benchPairs are the pairs of the handler benchmarks' rows, in row
// order: two corpus pairs and random24, a seeded 24-node pair over two
// locations, built like internal/memmodel's random24 fixture (the
// last-writer observer of a topological sort, so every model decides
// In and runs to completion), the size of the daemon's cache-missing
// traffic.
func benchPairs(b *testing.B) (names, pairs []string) {
	for _, name := range []string{"dekker.ccm", "litmus/iriw.ccm"} {
		pair, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			b.Fatal(err)
		}
		names, pairs = append(names, filepath.Base(name)), append(pairs, string(pair))
	}
	rng := rand.New(rand.NewSource(1))
	g := dag.Random(rng, 24, 0.25)
	ops := computation.AllOps(2)
	labels := make([]computation.Op, 24)
	for u := range labels {
		labels[u] = ops[rng.Intn(len(ops))]
	}
	c := computation.MustFrom(g, labels, 2)
	order, err := g.TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	return append(names, "random24"), append(pairs, pinPairText(c, observer.FromLastWriter(c, order)))
}

// benchHandler posts body to path on a new server with cache storage
// off, so that every request parses, canonicalizes and decides its
// pair, through the whole handler stack (middleware, decode, parse,
// cache, decide, render) without a listener. The allocation count is
// what scripts/bench-compare.sh gates.
func benchHandler(b *testing.B, path string, body []byte) {
	h := New(Config{}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	}
}

// BenchmarkBatch drives POST /v1/batch with the request the fleet
// coordinator sends for one pair under fleetctl's defaults on one
// replica: nine items, one per model, each carrying the same pair, SC
// as one full-range shard.
func BenchmarkBatch(b *testing.B) {
	names, pairs := benchPairs(b)
	for i, name := range names {
		var req BatchRequest
		for _, m := range memmodel.ModelNames() {
			req.Items = append(req.Items, BatchItem{ID: m, Pair: pairs[i], Model: m})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { benchHandler(b, "/v1/batch", body) })
	}
}

// BenchmarkCheck drives POST /v1/check for every model, as
// BenchmarkBatch drives /v1/batch.
func BenchmarkCheck(b *testing.B) {
	names, pairs := benchPairs(b)
	for i, name := range names {
		body, err := json.Marshal(CheckRequest{Pair: pairs[i]})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { benchHandler(b, "/v1/check", body) })
	}
}
