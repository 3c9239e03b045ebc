package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzDecodeRequests throws arbitrary bytes at the four /v1/*
// request decoders through the full middleware stack (MaxBytesReader,
// DisallowUnknownFields, the pair/trace parsers behind them, the
// batch's per-request parse map). The
// properties under test: no panic escapes the handler, garbage decodes
// as a 400 (never a 500), every response carries a request ID, and
// every non-2xx body is a well-formed ErrorResponse.
//
// Limits are pinned tiny so the fuzzer spends its budget in the decode
// path, not in decisions that happen to parse.
func FuzzDecodeRequests(f *testing.F) {
	seeds := []struct {
		which byte
		body  string
	}{
		{0, `{"pair":"locs x\nnode A R(x)0"}`},
		{0, `{"pair":"locs x\nnode A W(x)1","models":["SC","LC"]}`},
		{0, `{"pair":"","options":{"timeout_ms":-1,"max_states":9999999999}}`},
		{0, `{"pair":"locs x\nnode A R(x)0","unknown_field":1}`},
		{1, `{"trace":"W(x)1 A\nR(x)1 B"}`},
		{1, `{"trace":"","options":{"workers":-3}}`},
		{2, `{"max_nodes":2}`},
		{2, `{"max_nodes":-1,"locs":0}`},
		{2, `{"max_nodes":1e100}`},
		{0, `{"pair":`},
		{1, `null`},
		{2, `[]`},
		{0, "{\"pair\":\"\x00\xff\"}"},
		{1, `{"trace":"` + string(bytes.Repeat([]byte("W(x)1 A\\n"), 64)) + `"}`},
		{3, `{"items":[{"id":"a","pair":"locs x\nnode A W(x)\nnode B R(x)\nedge A B","model":"SC"},{"id":"b","pair":"locs x\nnode A W(x)\nnode B R(x)\nedge A B","model":"LC"}]}`},
		{3, `{"items":[{"pair":"locs x\nnode A W(x)","model":"SC"},{"pair":"locs x\nnode A W(x)","model":"PSO"}]}`},
		{3, `{"items":[{"pair":"locs x\nnode A W(x)","model":"SC","root_lo":0,"root_hi":1},{"pair":"locs x\nnode A W(x)","model":"LC","root_hi":1}]}`},
		{3, `{"items":[{"pair":"locs x\nnode A W(x)","model":"SC"},{"pair":"not a pair","model":"SC"}]}`},
		{3, `{"items":[{"pair":"locs x\nnode A W(x)","model":"SC"}]}{"options":{}}`},
		{3, `{"items":[]}`},
	}
	for _, s := range seeds {
		f.Add(s.which, []byte(s.body))
	}

	srv := New(Config{
		Limits: Limits{
			DefaultTimeout: 50 * time.Millisecond,
			MaxTimeout:     50 * time.Millisecond,
			MaxStates:      2000,
			MaxMemoMB:      1,
			MaxWorkers:     1,
			MaxEnumNodes:   2,
		},
	})
	h := srv.Handler()
	paths := []string{"/v1/check", "/v1/verify", "/v1/enumerate", "/v1/batch"}

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		path := paths[int(which)%len(paths)]
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r) // a panic here fails the fuzz run via Recovery's 500 below

		resp := w.Result()
		if resp.StatusCode == http.StatusInternalServerError {
			t.Fatalf("%s decoding %q returned 500: %s", path, body, w.Body.Bytes())
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s decoding %q returned %d, want 200 or 400", path, body, resp.StatusCode)
		}
		if resp.Header.Get("X-Request-Id") == "" {
			t.Fatalf("%s response (%d) carries no request id", path, resp.StatusCode)
		}
		if resp.StatusCode != http.StatusOK {
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s error body %q is not an ErrorResponse", path, w.Body.Bytes())
			}
		}
	})
}
