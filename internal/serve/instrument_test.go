package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// probeWriter runs probe inside the response's first body Write: the
// earliest moment a client can act on the response.
type probeWriter struct {
	*httptest.ResponseRecorder
	probe func()
}

func (w *probeWriter) Write(p []byte) (int, error) {
	if probe := w.probe; probe != nil {
		w.probe = nil
		probe()
	}
	return w.ResponseRecorder.Write(p)
}

// TestCountersPublishedBeforeResponse: an exchange's error and shed
// counts are in /statsz by the time its response body is written, so a
// client that reads /statsz after its own failed request sees it.
func TestCountersPublishedBeforeResponse(t *testing.T) {
	s := New(Config{})
	checkStats := func() EndpointStats {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
		var doc Statsz
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("statsz: %v", err)
		}
		return doc.Endpoints["check"]
	}
	exchange := func(body string, wantCode int, wantErrors, wantShed int64) {
		t.Helper()
		var seen EndpointStats
		w := &probeWriter{ResponseRecorder: httptest.NewRecorder(), probe: func() { seen = checkStats() }}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body)))
		if w.Code != wantCode {
			t.Fatalf("status %d, want %d: %s", w.Code, wantCode, w.Body)
		}
		if seen.Errors != wantErrors || seen.Shed != wantShed {
			t.Errorf("while writing the %d response: errors %d, shed %d; want %d, %d",
				wantCode, seen.Errors, seen.Shed, wantErrors, wantShed)
		}
	}
	exchange("{", http.StatusBadRequest, 1, 0)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	exchange(`{"pair": "locs x\nnode A W(x)\n"}`, http.StatusServiceUnavailable, 2, 1)
}
