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

// BenchmarkBatch drives POST /v1/batch with the request the fleet
// coordinator sends for one pair under fleetctl's defaults on one
// replica: nine items, one per model, each carrying the same pair, SC
// as one full-range shard. It goes through the whole handler stack
// (middleware, decode, parse, cache, decide, render) without a
// listener. Cache storage is off, so every item is decided; the
// allocation count is what scripts/bench-compare.sh gates.
func BenchmarkBatch(b *testing.B) {
	for _, name := range []string{"dekker.ccm", "litmus/iriw.ccm"} {
		pair, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			b.Fatal(err)
		}
		var req BatchRequest
		for _, m := range memmodel.ModelNames() {
			req.Items = append(req.Items, BatchItem{ID: m, Pair: string(pair), Model: m})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		h := New(Config{}).Handler()
		b.Run(filepath.Base(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
				}
			}
		})
	}
}

// BenchmarkCheck drives POST /v1/check for every model through the
// whole handler stack, as BenchmarkBatch does, with cache storage off
// so that every request parses, canonicalizes and decides its pair.
// The rows are two corpus pairs and random24: a seeded 24-node pair
// over two locations, built like internal/memmodel's random24 fixture
// (the last-writer observer of a topological sort, so every model
// decides In and runs to completion), the size of the daemon's
// cache-missing traffic.
func BenchmarkCheck(b *testing.B) {
	pairs := map[string]string{}
	for _, name := range []string{"dekker.ccm", "litmus/iriw.ccm"} {
		pair, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			b.Fatal(err)
		}
		pairs[filepath.Base(name)] = string(pair)
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
	pairs["random24"] = pinPairText(c, observer.FromLastWriter(c, order))
	for _, name := range []string{"dekker.ccm", "iriw.ccm", "random24"} {
		body, err := json.Marshal(CheckRequest{Pair: pairs[name]})
		if err != nil {
			b.Fatal(err)
		}
		h := New(Config{}).Handler()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
				}
			}
		})
	}
}
