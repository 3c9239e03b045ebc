package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/observer"
)

// ---- /v1/batch ------------------------------------------------------

var batchCorpus = []string{
	"dekker.ccm", "figure2.ccm", "figure3.ccm", "figure4_prefix.ccm", "stale_read.ccm",
}

func batchResults(t *testing.T, data []byte) []BatchResult {
	t.Helper()
	var resp BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad batch response %s: %v", data, err)
	}
	return resp.Results
}

// TestBatchFullRangeMatchesCheck pins the conformance the fleet rests
// on: a full-range batch item answers exactly like /v1/check for the
// same pair and model — same verdict text, same rendered witness.
func TestBatchFullRangeMatchesCheck(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, name := range batchCorpus {
		pair := readTestdata(t, name)
		resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: pair})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: check status %d: %s", name, resp.StatusCode, data)
		}
		want := checkVerdicts(t, data)

		var items []BatchItem
		for _, m := range memmodel.ModelNames() {
			items = append(items, BatchItem{ID: name + "/" + m, Pair: pair, Model: m})
		}
		resp, data = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: items})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch status %d: %s", name, resp.StatusCode, data)
		}
		results := batchResults(t, data)
		if len(results) != len(items) {
			t.Fatalf("%s: %d results for %d items", name, len(results), len(items))
		}
		for i, r := range results {
			if r.ID != items[i].ID {
				t.Fatalf("%s: result %d ID %q, want %q", name, i, r.ID, items[i].ID)
			}
			w := want[r.Model]
			if r.Verdict.String() != w.Verdict.String() {
				t.Fatalf("%s/%s: batch verdict %s, check %s", name, r.Model, r.Verdict, w.Verdict)
			}
			if r.Witness != w.Witness {
				t.Fatalf("%s/%s: batch witness %q, check %q", name, r.Model, r.Witness, w.Witness)
			}
			if fmt.Sprint(r.LocWitnesses) != fmt.Sprint(w.LocWitnesses) {
				t.Fatalf("%s/%s: batch loc witnesses %v, check %v", name, r.Model, r.LocWitnesses, w.LocWitnesses)
			}
			if r.Violation != w.Violation {
				t.Fatalf("%s/%s: batch violation %q, check %q", name, r.Model, r.Violation, w.Violation)
			}
		}
	}
}

// TestBatchResponseBytes pins the contract handleBatch splices its
// response under: for a fleet-shaped batch over every corpus pair, with
// IDs that encoding/json escapes and one item without an ID, the body
// equals json.Marshal of its own decoded BatchResponse plus a newline,
// byte for byte, on a miss and on the hit that repeats it.
func TestBatchResponseBytes(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.ccm")
	if err != nil {
		t.Fatal(err)
	}
	litmus, err := filepath.Glob("../../testdata/litmus/*.ccm")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, litmus...)
	if len(files) < 20 {
		t.Fatalf("found %d corpus pairs, want the testdata and litmus ones", len(files))
	}
	for _, file := range files {
		pair, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var items []BatchItem
		for _, m := range memmodel.ModelNames() {
			items = append(items, BatchItem{ID: "<" + m + "> & \u2028 é", Pair: string(pair), Model: m})
		}
		items[1].ID = ""
		// A fresh server per pair, so the first batch misses on every item.
		_, ts := testServer(t, Config{CacheBytes: 1 << 20})
		var miss []byte
		for _, want := range []string{"miss", "hit"} {
			resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: items})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", file, resp.StatusCode, data)
			}
			if got := resp.Header.Get("X-Ccmd-Cache"); got != want {
				t.Fatalf("%s: cache %q, want %q", file, got, want)
			}
			var decoded BatchResponse
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			for i, r := range decoded.Results {
				if r.ID != items[i].ID {
					t.Fatalf("%s: result %d ID %q, want %q", file, i, r.ID, items[i].ID)
				}
			}
			again, err := json.Marshal(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, append(again, '\n')) {
				t.Fatalf("%s (%s): body\n%s\nis not json.Marshal of its decoding\n%s", file, want, data, again)
			}
			if miss != nil && !bytes.Equal(data, miss) {
				t.Fatalf("%s: hit body\n%s\ndiffers from miss body\n%s", file, data, miss)
			}
			miss = data
		}
	}
}

// TestBatchMixedPairs interleaves two different pairs and a textual
// variant of the first (a comment and a blank line added) in one
// batch. Each item must be answered byte for byte as it is when sent
// alone, and every variant item must hit the cache entry its twin
// filled earlier in the same batch.
func TestBatchMixedPairs(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	_, alone := testServer(t, Config{})
	dekker := readTestdata(t, "dekker.ccm")
	pairs := []string{dekker, readTestdata(t, "figure2.ccm"), "# a variant\n\n" + dekker}
	models := memmodel.ModelNames()
	var items []BatchItem
	for _, m := range models {
		for k, p := range pairs {
			items = append(items, BatchItem{ID: fmt.Sprintf("%s/%d", m, k), Pair: p, Model: m})
		}
	}
	// One engine worker, so the SC and TSO search stats repeat exactly.
	opts := Options{Workers: 1}
	type rawResults struct {
		Results []json.RawMessage `json:"results"`
	}

	before := statsz(t, ts.URL).Cache
	resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: items, Options: opts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	after := statsz(t, ts.URL).Cache
	if got, want := after.Misses-before.Misses, int64(2*len(models)); got != want {
		t.Fatalf("%d cache misses, want %d (two distinct pairs per model)", got, want)
	}
	if got, want := after.Hits-before.Hits, int64(len(models)); got != want {
		t.Fatalf("%d cache hits, want %d (the variant's items)", got, want)
	}
	var mixed rawResults
	if err := json.Unmarshal(data, &mixed); err != nil || len(mixed.Results) != len(items) {
		t.Fatalf("mixed batch: %d results for %d items (%v): %s", len(mixed.Results), len(items), err, data)
	}
	for i, it := range items {
		resp, data := postJSON(t, alone.URL+"/v1/batch", BatchRequest{Items: []BatchItem{it}, Options: opts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("item %s alone: status %d: %s", it.ID, resp.StatusCode, data)
		}
		var single rawResults
		if err := json.Unmarshal(data, &single); err != nil || len(single.Results) != 1 {
			t.Fatalf("item %s alone: %s (%v)", it.ID, data, err)
		}
		if !bytes.Equal(mixed.Results[i], single.Results[0]) {
			t.Fatalf("item %s in the mixed batch:\n%s\nalone:\n%s", it.ID, mixed.Results[i], single.Results[0])
		}
	}
}

// TestBatchShardMergeMatchesFull splits every corpus pair's SC
// question into one batch item per frontier root and checks that the
// lowest-witness-root merge reproduces the full run's verdict and
// witness bytes — the determinism argument the fleet coordinator
// implements, exercised over the real wire format.
func TestBatchShardMergeMatchesFull(t *testing.T) {
	_, ts := testServer(t, Config{})
	sharded := 0
	for _, name := range batchCorpus {
		pair := readTestdata(t, name)
		named, ofn, err := observer.ParsePairString(pair)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total, triv := memmodel.SCShardPlan(named.Comp, ofn)
		if triv != nil {
			continue
		}

		// The full-range item is the reference.
		resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
			Items: []BatchItem{{Pair: pair, Model: "SC"}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: full batch status %d: %s", name, resp.StatusCode, data)
		}
		full := batchResults(t, data)[0]
		if full.RootsTotal != total {
			t.Fatalf("%s: server frontier %d, local plan %d", name, full.RootsTotal, total)
		}

		var items []BatchItem
		for i := 0; i < total; i++ {
			items = append(items, BatchItem{
				ID: fmt.Sprintf("%s/%d", name, i), Pair: pair, Model: "SC", RootLo: i, RootHi: i + 1,
			})
		}
		resp, data = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: items})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: shard batch status %d: %s", name, resp.StatusCode, data)
		}
		results := batchResults(t, data)

		// Merge: lowest witness root wins; all-Out means Out.
		merged := BatchResult{WitnessRoot: -1}
		decided := true
		for _, r := range results {
			if r.RootsTotal != total {
				t.Fatalf("%s: shard reports frontier %d, want %d", name, r.RootsTotal, total)
			}
			decided = decided && r.Verdict.Decided
			if r.Verdict.In() && (merged.WitnessRoot == -1 || r.WitnessRoot < merged.WitnessRoot) {
				merged = r
			}
		}
		if !decided {
			t.Fatalf("%s: inconclusive shard in an ungoverned run", name)
		}
		if merged.WitnessRoot >= 0 {
			if !full.Verdict.In() {
				t.Fatalf("%s: shards found witness, full run says %s", name, full.Verdict)
			}
			if merged.Witness != full.Witness {
				t.Fatalf("%s: merged witness %q, full %q", name, merged.Witness, full.Witness)
			}
			if merged.WitnessRoot != full.WitnessRoot {
				t.Fatalf("%s: merged witness root %d, full %d", name, merged.WitnessRoot, full.WitnessRoot)
			}
		} else if !full.Verdict.Out() {
			t.Fatalf("%s: all shards Out, full run says %s", name, full.Verdict)
		}
		if total > 1 {
			sharded++
		}
	}
	if sharded == 0 {
		t.Fatal("weak test: no corpus pair had a multi-root frontier")
	}
}

// TestBatchShardRangesDistinctCacheKeys pins the no-aliasing property:
// the same pair under different shard ranges, and the same shard under
// different governance clamps, must occupy distinct cache entries —
// a hit may only ever serve the exact (pair, model, shard, governance)
// coordinate that filled it.
func TestBatchShardRangesDistinctCacheKeys(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	pair := readTestdata(t, "dekker.ccm")
	post := func(item BatchItem, opts Options) BatchResult {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []BatchItem{item}, Options: opts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, data)
		}
		return batchResults(t, data)[0]
	}
	named, ofn, err := observer.ParsePairString(pair)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := memmodel.SCShardPlan(named.Comp, ofn)
	if total < 2 {
		t.Fatalf("dekker frontier %d, need >= 2", total)
	}

	// Distinct shard ranges of one pair, then repeats of each: the
	// misses must equal the number of distinct coordinates, and repeats
	// must all hit.
	coords := []BatchItem{
		{Pair: pair, Model: "SC"},                           // full range
		{Pair: pair, Model: "SC", RootLo: 0, RootHi: 1},     // first root
		{Pair: pair, Model: "SC", RootLo: 1, RootHi: total}, // the rest
	}
	// Two governance clamps that survive clamping as distinct
	// fingerprints (different state budgets).
	optsVariants := []Options{{}, {MaxStates: 100000}, {MaxStates: 200000}}

	verdicts := make(map[string]string)
	before := statsz(t, ts.URL).Cache
	n := 0
	for _, item := range coords {
		for _, opts := range optsVariants {
			r := post(item, opts)
			verdicts[fmt.Sprintf("%d-%d-%d", item.RootLo, item.RootHi, opts.MaxStates)] = r.Verdict.String() + "|" + r.Witness
			n++
		}
	}
	mid := statsz(t, ts.URL).Cache
	if got := mid.Misses - before.Misses; got != int64(n) {
		t.Fatalf("first pass: %d misses for %d distinct coordinates", got, n)
	}
	for _, item := range coords {
		for _, opts := range optsVariants {
			r := post(item, opts)
			if got := r.Verdict.String() + "|" + r.Witness; got != verdicts[fmt.Sprintf("%d-%d-%d", item.RootLo, item.RootHi, opts.MaxStates)] {
				t.Fatalf("replay of %+v/%+v changed answer to %q", item, opts, got)
			}
		}
	}
	after := statsz(t, ts.URL).Cache
	if got := after.Hits - mid.Hits; got != int64(n) {
		t.Fatalf("second pass: %d hits for %d repeats", got, n)
	}
	if after.Misses != mid.Misses {
		t.Fatalf("second pass added %d misses", after.Misses-mid.Misses)
	}
}

// TestBatchCacheSharedAcrossRequests: a second identical batch is
// served from cache and says so in the header.
func TestBatchCacheHeader(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	req := BatchRequest{Items: []BatchItem{{Pair: readTestdata(t, "figure2.ccm"), Model: "SC"}}}
	resp, _ := postJSON(t, ts.URL+"/v1/batch", req)
	if got := resp.Header.Get("X-Ccmd-Cache"); got != "miss" {
		t.Fatalf("first batch cache header %q, want miss", got)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/batch", req)
	if got := resp.Header.Get("X-Ccmd-Cache"); got != "hit" {
		t.Fatalf("second batch cache header %q, want hit", got)
	}
}

func TestBatchBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	pair := readTestdata(t, "figure2.ccm")
	tooMany := make([]BatchItem, maxBatchItems+1)
	for i := range tooMany {
		tooMany[i] = BatchItem{Pair: pair, Model: "SC"}
	}
	good := BatchItem{Pair: pair, Model: "SC"}
	cases := []struct {
		name string
		req  BatchRequest
		want string // prefix of the error message
	}{
		{"empty batch", BatchRequest{}, ""},
		{"too many items", BatchRequest{Items: tooMany}, ""},
		{"unknown model", BatchRequest{Items: []BatchItem{{Pair: pair, Model: "PSO"}}}, ""},
		{"bad pair", BatchRequest{Items: []BatchItem{{Pair: "not a pair", Model: "SC"}}}, ""},
		{"negative bound", BatchRequest{Items: []BatchItem{{Pair: pair, Model: "SC", RootLo: -1}}}, ""},
		{"empty range", BatchRequest{Items: []BatchItem{{Pair: pair, Model: "SC", RootLo: 2, RootHi: 2}}}, ""},
		{"inverted range", BatchRequest{Items: []BatchItem{{Pair: pair, Model: "SC", RootLo: 3, RootHi: 1}}}, ""},
		{"sharded polynomial model", BatchRequest{Items: []BatchItem{{Pair: pair, Model: "LC", RootHi: 1}}}, ""},
		// A bad item whose pair an earlier item already carried is named
		// by its own index.
		{"unknown model, repeated pair", BatchRequest{Items: []BatchItem{good, {Pair: pair, Model: "PSO"}}}, "item 1: unknown model"},
		{"sharded LC, repeated pair", BatchRequest{Items: []BatchItem{good, {Pair: pair, Model: "LC", RootHi: 1}}}, "item 1: model LC is not shardable"},
		{"bad pair after a good one", BatchRequest{Items: []BatchItem{good, {Pair: "not a pair", Model: "SC"}}}, "item 1: "},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/batch", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" || !strings.HasPrefix(e.Error, tc.want) {
			t.Fatalf("%s: error body %s, want an error starting %q", tc.name, data, tc.want)
		}
	}
}

// TestBatchMetricsWired: the batch endpoint has its own /statsz gauge
// row.
func TestBatchMetricsWired(t *testing.T) {
	_, ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []BatchItem{{Pair: readTestdata(t, "figure3.ccm"), Model: "NN"}}})
	doc := statsz(t, ts.URL)
	ep, ok := doc.Endpoints["batch"]
	if !ok {
		t.Fatal("no batch endpoint stats")
	}
	if ep.Requests != 1 {
		t.Fatalf("batch requests = %d, want 1", ep.Requests)
	}
}
