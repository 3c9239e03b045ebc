package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/memmodel"
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
