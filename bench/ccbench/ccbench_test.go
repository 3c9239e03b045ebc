package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/serve"
)

const repoRoot = "../.."

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestMain lets the test binary serve as the stage-trace child too.
func TestMain(m *testing.M) {
	if spec := os.Getenv(stageEnv); spec != "" {
		os.Exit(runStagesChild(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPairsDeterministic(t *testing.T) {
	w1, m1 := genPairs(7, 100, 1000, true)
	w2, m2 := genPairs(7, 100, 1000, true)
	if !bytes.Equal(w1.buf, w2.buf) || !bytes.Equal(m1.buf, m2.buf) {
		t.Fatal("the same seed gave different pairs")
	}
	for i := 0; i < m1.len(); i++ {
		if !bytes.Equal(m1.appendBatchBody(nil, i), m2.appendBatchBody(nil, i)) {
			t.Fatalf("the same seed gave different batch bodies for pair %d", i)
		}
	}
	_, m3 := genPairs(8, 100, 1000, false)
	if bytes.Equal(m1.buf, m3.buf) {
		t.Fatal("different seeds gave the same pairs")
	}
}

// TestPairsDistinctKeys checks the default-size check-miss inputs: every
// body decodes as the daemon decodes it, is already in the daemon's
// canonical form, and has its own cache key — warm-up pairs included.
func TestPairsDistinctKeys(t *testing.T) {
	cfg := defaultConfig()
	warm, timed := genPairs(1, cfg.missWarmup, cfg.missPairs, false)
	keys := make(map[string]bool, warm.len()+timed.len())
	for _, ps := range []*pairSet{warm, timed} {
		for i := 0; i < ps.len(); i++ {
			var req serve.CheckRequest
			if err := json.Unmarshal(ps.appendCheckBody(nil, i), &req); err != nil {
				t.Fatalf("body %d: %v", i, err)
			}
			named, o, err := observer.ParsePairString(req.Pair)
			if err != nil {
				t.Fatalf("body %d: %v", i, err)
			}
			var canon strings.Builder
			if err := observer.FormatPair(&canon, named, o); err != nil {
				t.Fatal(err)
			}
			if canon.String() != req.Pair {
				t.Fatalf("body %d is not canonical:\n%s\nwant\n%s", i, req.Pair, canon.String())
			}
			keys[serve.Key("check", req.Pair, strings.Join(models, ","), defaultFingerprint)] = true
		}
	}
	if want := cfg.missWarmup + cfg.missPairs; len(keys) != want {
		t.Fatalf("%d distinct cache keys, want %d", len(keys), want)
	}
}

// TestFamilyInvariants checks each family's construction against its
// defining property, without a decider.
func TestFamilyInvariants(t *testing.T) {
	g := newPairGen(3, map[uint64]struct{}{})
	for i := 0; i < 3000; i++ {
		fam := uint8(i % int(numFamilies))
		named, order, o := g.pair(fam)
		c := named.Comp
		n := c.NumNodes()
		if n < minNodes || n > maxNodes || c.NumLocs() != numLocs {
			t.Fatalf("pair %d: %d nodes, %d locations", i, n, c.NumLocs())
		}
		if !c.Dag().IsTopoSort(order) {
			t.Fatalf("pair %d: %v is not a topological sort", i, order)
		}
		if err := o.Validate(c); err != nil {
			t.Fatalf("pair %d (%s): %v", i, familyNames[fam], err)
		}
		lw := observer.FromLastWriter(c, order)
		var diffs [][2]int // (loc, node) entries that differ from W_T
		for l := 0; l < numLocs; l++ {
			for u := 0; u < n; u++ {
				if o.Get(computation.Loc(l), dag.Node(u)) != lw.Get(computation.Loc(l), dag.Node(u)) {
					diffs = append(diffs, [2]int{l, u})
				}
			}
		}
		switch fam {
		case familyLastWriter:
			if len(diffs) != 0 {
				t.Fatalf("pair %d: lastwriter differs from W_T at %v", i, diffs)
			}
		case familyStale:
			if len(diffs) != 1 {
				t.Fatalf("pair %d: stale differs from W_T at %v, want one entry", i, diffs)
			}
			l, w := computation.Loc(diffs[0][0]), dag.Node(diffs[0][1])
			u := o.Get(l, w)
			cl := c.Closure()
			found := false
			for _, v := range c.Writers(l) {
				if u != observer.Bottom && c.Op(u).IsWriteTo(l) && cl.Precedes(u, v) && cl.Precedes(v, w) {
					found = true
				}
			}
			if !c.Op(w).IsReadOf(l) || !found {
				t.Fatalf("pair %d: stale entry Φ(%d,%d)=%d has no write v with u ≺ v ≺ w", i, l, w, u)
			}
			if memmodel.ExplainQDag(memmodel.PredWW, c, o) == nil {
				t.Fatalf("pair %d: stale pair satisfies WW's Condition 20.1", i)
			}
		case familyPerturbed:
			for _, d := range diffs {
				if c.Op(dag.Node(d[1])).IsWriteTo(computation.Loc(d[0])) {
					t.Fatalf("pair %d: perturbed a write's own entry %v", i, d)
				}
			}
		}
	}
}

// TestKnownAnswersHold runs the deciders in-process on generated pairs,
// through both replays: the benchmark's known answers must be true of
// the code, and the two endpoints must agree.
func TestKnownAnswersHold(t *testing.T) {
	_, ps := genPairs(11, 0, 900, true)
	for i := 0; i < ps.len(); i++ {
		st, err := replay(ps.appendCheckBody(nil, i), nil, i)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if err := checkFamily(ps.family[i], st.verdicts); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if i%10 != 0 {
			continue
		}
		bt, err := replayBatch(ps.appendBatchBody(nil, i), nil, i)
		if err != nil {
			t.Fatalf("pair %d batch: %v", i, err)
		}
		if strings.Join(bt.verdicts, " ") != strings.Join(st.verdicts, " ") {
			t.Fatalf("pair %d: batch verdicts %v, check verdicts %v", i, bt.verdicts, st.verdicts)
		}
	}
}

// TestBodiesMatchCallers pins the hand-framed bodies: a check body is
// json.Marshal's encoding of the serve.CheckRequest, and a batch body is
// byte for byte what internal/fleet's coordinator sends a one-replica
// fleet for the pair, whose merged answer is the family's known one.
func TestBodiesMatchCallers(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer srv.Close()
	rec := &recordingTransport{}
	co, err := fleet.New(fleet.Config{Replicas: []string{srv.URL}, Transport: rec})
	if err != nil {
		t.Fatal(err)
	}
	_, ps := genPairs(5, 0, 60, true)
	for i := 0; i < ps.len(); i++ {
		var pair string
		if err := json.Unmarshal(ps.lit(i), &pair); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(serve.CheckRequest{Pair: pair})
		if err != nil {
			t.Fatal(err)
		}
		if got := ps.appendCheckBody(nil, i); !bytes.Equal(got, want) {
			t.Fatalf("pair %d check body:\n%s\nwant\n%s", i, got, want)
		}
		rec.bodies = nil
		rep, err := co.Check(context.Background(), pair, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.bodies) != 1 {
			t.Fatalf("pair %d: the coordinator sent %d requests, want 1", i, len(rec.bodies))
		}
		if got := ps.appendBatchBody(nil, i); !bytes.Equal(got, rec.bodies[0]) {
			t.Fatalf("pair %d batch body:\n%s\nthe coordinator sent\n%s", i, got, rec.bodies[0])
		}
		var vs []string
		for _, o := range rep.Outcomes {
			vs = append(vs, o.Verdict.String())
		}
		if err := checkFamily(ps.family[i], vs); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
	}
}

// recordingTransport keeps each request body it forwards.
type recordingTransport struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (r *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.bodies = append(r.bodies, body)
	r.mu.Unlock()
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	return http.DefaultTransport.RoundTrip(out)
}

func TestParseVerdicts(t *testing.T) {
	resp := serve.CheckResponse{}
	for _, m := range models {
		resp.Results = append(resp.Results, serve.ModelResult{Model: m, Verdict: memmodel.Verdict{Decided: true, Member: m != "SC"}, Witness: `a "quoted" b`})
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := parseVerdicts(body)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0] != "OUT" || vs[1] != "IN" || len(vs) != len(models) {
		t.Fatalf("parsed %v", vs)
	}
	if _, err := parseVerdicts(body[:len(body)/2]); err == nil {
		t.Fatal("a truncated response parsed")
	}
}

func TestLitmusCorpusLoads(t *testing.T) {
	fx, err := loadLitmus(filepath.Join(repoRoot, "testdata", "litmus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fx) != 15 {
		t.Fatalf("%d litmus fixtures, want 15", len(fx))
	}
	for _, f := range fx {
		st, err := replay(f.body, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkLitmus(f, st.verdicts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 102}, []float64{101, 102, 100}, "agree"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, "worse"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, "agree"},
		{[]float64{100, 150, 60}, []float64{100, 101, 102}, "unresolved"},
		{[]float64{100, 150, 60}, []float64{50, 51, 52}, "agree"},
	} {
		if got, _, _ := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables equal.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, here %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	sameMetrics := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", kind, i, got[i], want[i])
			}
		}
	}
	sameMetrics("end_to_end", doc.EndToEnd, endToEnd)
	sameMetrics("per_layer", doc.PerLayer, perLayer)
	if doc.RunSeconds != int(defaultConfig().seconds/time.Second) {
		t.Errorf("run_seconds %d, default -seconds %v", doc.RunSeconds, defaultConfig().seconds)
	}
}

// TestSmoke runs every workload, end-to-end and traced, at tiny sizes
// against freshly built binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns ccmd and lattice")
	}
	cfg := defaultConfig()
	cfg.root = repoRoot
	if err := prepare(&cfg, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	cfg.seconds = 300 * time.Millisecond
	cfg.spawns, cfg.pieces, cfg.refReps = 2, 2, 1
	cfg.missWarmup, cfg.missPairs, cfg.hitRequests = 20, 600, 3000
	cfg.batchWarmup, cfg.batchPairs = 20, 300
	cfg.missSample, cfg.batchSample, cfg.hitSample = 20, 20, 20
	cfg.probeWarmup, cfg.probeSample, cfg.probePairs = 10, 10, 300
	cfg.probeSeconds = 100 * time.Millisecond
	cfg.sweepN, cfg.starN, cfg.probeN = 3, 3, 3

	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := runWorkload(cfg, w, trace, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: %+v", w.name, trace, res)
			}
			if trace && (w.name == "check-miss" || w.name == "batch-miss" || w.name == "check-hit") {
				checkAttribution(t, w.name, res.Metrics)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceDetector {
		t.Errorf("smoke run took %v, want under 10 s", d)
	}
}

// checkAttribution checks the attributed stages plus unattributed_us
// add up to exchange_us.
func checkAttribution(t *testing.T, wl string, m map[string]value) {
	t.Helper()
	stages := []string{"http.decode_us", "parse.pair_us", "canon.key_us", "unattributed_us"}
	if wl != "check-hit" {
		stages = append(stages, "render.json_us")
		for _, name := range models {
			stages = append(stages, "decide."+name+"_us")
		}
	}
	sum := 0.0
	for _, s := range stages {
		sum += m[s].Value
	}
	if ex := m["exchange_us"].Value; math.Abs(sum-ex) > 1e-6*ex {
		t.Errorf("%s: stages sum to %v µs, exchange_us is %v", wl, sum, ex)
	}
}

// The smoke test's known answers must cover its sizes.
func TestKnownAnswerTables(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		if _, ok := latticePairs[n]; !ok {
			t.Errorf("no lattice pair count for n=%d", n)
		}
	}
	if got := nnStarPairs(5)[4]; got != 12722 {
		t.Errorf("|NN*| at size 4 = %d", got)
	}
}
