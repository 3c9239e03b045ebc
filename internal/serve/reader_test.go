package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/memmodel"
	"repro/internal/observer"
)

// corpusPairs returns every testdata and litmus pair text, by file.
func corpusPairs(t testing.TB) map[string]string {
	t.Helper()
	var files []string
	for _, glob := range []string{"../../testdata/*.ccm", "../../testdata/litmus/*.ccm"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 20 {
		t.Fatalf("found %d corpus pairs, want the testdata and litmus ones", len(files))
	}
	pairs := make(map[string]string, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pairs[f] = string(data)
	}
	return pairs
}

// coordinatorBatch is the BatchRequest internal/fleet's coordinator
// sends a one-replica fleet for pair under fleetctl's defaults: one item
// per model, the SC question as one full-range shard whose ID names
// the frontier's size.
func coordinatorBatch(t testing.TB, pair string) BatchRequest {
	t.Helper()
	named, ofn, err := observer.ParsePairString(pair)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := memmodel.SCShardPlan(named.Comp, ofn)
	var req BatchRequest
	for _, m := range memmodel.ModelNames() {
		id := m
		if m == "SC" {
			id = fmt.Sprintf("SC:0:0-%d", total)
		}
		req.Items = append(req.Items, BatchItem{ID: id, Pair: pair, Model: m})
	}
	return req
}

// TestReaderTakesCorpusRequests holds the reader, not the encoding/json
// fallback, to the daemon's real traffic: json.Marshal of a CheckRequest
// and of a coordinator-shaped batch for every corpus pair, the batch's
// nine pair literals decoded into one string.
func TestReaderTakesCorpusRequests(t *testing.T) {
	taken, total := 0, 0
	for file, pair := range corpusPairs(t) {
		for _, req := range []any{&CheckRequest{Pair: pair}, ptr(coordinatorBatch(t, pair))} {
			total++
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(req).Elem())
			if !readRequest(body, got.Interface()) {
				t.Errorf("%s: the reader left %T to encoding/json", file, req)
				continue
			}
			if !reflect.DeepEqual(got.Interface(), req) {
				t.Errorf("%s: the reader decoded %+v, want %+v", file, got.Interface(), req)
				continue
			}
			if b, ok := got.Interface().(*BatchRequest); ok {
				for _, it := range b.Items[1:] {
					if unsafe.StringData(it.Pair) != unsafe.StringData(b.Items[0].Pair) {
						t.Errorf("%s: the batch's pair literals were decoded apart", file)
						break
					}
				}
			}
			taken++
		}
	}
	if taken != total {
		t.Errorf("the reader took %d of %d corpus requests", taken, total)
	}
}

func ptr[T any](v T) *T { return &v }

// TestDecodeBufferReuse: decode reads bodies into pooled buffers, so a
// request's decoded strings must be unchanged after the next request
// reads its body into the same buffer, on the reader's path and on
// encoding/json's.
func TestDecodeBufferReuse(t *testing.T) {
	// With one P, the buffer decode puts back is the next one it gets.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	decodeBody := func(body string) (CheckRequest, *byte) {
		t.Helper()
		var req CheckRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body))
		if err := decode(httptest.NewRecorder(), r, &req); err != nil {
			t.Fatal(err)
		}
		buf := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(buf)
		return req, unsafe.SliceData(*buf)
	}
	for _, body := range []string{
		`{"pair":"locs x\nnode A W(x)\n","models":["SC","LC"],"options":{"workers":1}}`,
		`{"pair":"locs x\nnode A W(x)\n","models":["SC","LC"],"options":null}`, // the reader takes no null
	} {
		var want CheckRequest
		if err := decodeJSON(strings.NewReader(body), &want); err != nil {
			t.Fatal(err)
		}
		// Under the race detector sync.Pool drops some of what it is
		// given, so the two requests repeat until the second reuses the
		// first one's buffer.
		reused := false
		for try := 0; try < 100 && !reused; try++ {
			got, buf := decodeBody(body)
			// The next body is as long and shares no byte with this
			// one before its closing "{}".
			_, next := decodeBody(strings.Repeat(" ", len(body)-2) + "{}")
			reused = buf != nil && next == buf
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %+v, then %+v after the next request", body, want, got)
			}
		}
		if !reused {
			t.Fatalf("%s: the next request never reused the buffer", body)
		}
	}
}

// FuzzRequestReader holds the reader to encoding/json: a body it takes
// as a CheckRequest (which even) or BatchRequest (which odd) must be
// one that decode's encoding/json path takes too, with a DeepEqual
// value that shares no storage with the body, and must be inside the
// subset the reader claims (exactSubset); a body it leaves must leave
// the request zero.
func FuzzRequestReader(f *testing.F) {
	// Seeds stay under a kilobyte: the fuzzer minimizes every new input
	// it finds, and minimizing one cut from a multi-kilobyte seed can
	// take the whole run.
	pair := "locs x\nnode A W(x)\nnode B R(x)\nedge A B\nobserve B x A\n"
	check, _ := json.Marshal(CheckRequest{Pair: pair})
	batch, _ := json.Marshal(coordinatorBatch(f, pair))
	f.Add(byte(0), check)
	f.Add(byte(1), batch)
	odd := "locs x\nnode A W(x) # <a> & b \u2028 é ⊥ \u2029\nnode B R(x)\nedge A B\nobserve B x A"
	check, _ = json.Marshal(CheckRequest{Pair: odd, Models: []string{"SC", "<LC>"}, Options: Options{TimeoutMS: -1, Workers: 3}})
	batch, _ = json.Marshal(BatchRequest{Items: []BatchItem{
		{ID: "<é>", Pair: odd, Model: "SC", RootLo: 1, RootHi: 2},
		{ID: "\u2028⊥", Pair: odd, Model: "LC"},
	}, Options: Options{MaxStates: 1 << 40}})
	f.Add(byte(0), check)
	f.Add(byte(1), batch)
	long := strings.Repeat("x", repeatMin)
	for _, s := range []string{
		// Duplicate keys, null and case-variant keys.
		`{"pair":"a","pair":"b"}`,
		`{"models":["SC","LC"],"models":["TSO"]}`,
		`{"options":{"workers":1},"options":{"max_states":2}}`,
		`{"options":{"workers":1,"workers":2}}`,
		`{"pair":null}`, `{"models":null}`, `{"options":null}`, `{"models":[null]}`, `null`,
		`{"Pair":"x"}`, `{"pair":"a","PAIR":"b"}`, `{"OPTIONS":{}}`, `{"options":{"Workers":1}}`,
		"{\"options\":{\"worKers\":1}}", `{"pair":"x"}`,
		// Surrogate pairs and invalid UTF-8.
		`{"pair":"😀"}`, `{"pair":"\ud83d\ude00"}`, `{"pair":"\ud800"}`, `{"pair":"\udc00\ud800"}`, `{"pair":"\ud800A"}`,
		"{\"pair\":\"\xff\"}", "{\"pair\":\"\xed\xa0\x80\"}", "{\"pair\":\"\xe2\x8a\"}", "{\"pair\":\"a\x01\"}",
		// Escapes.
		`{"pair":"a\"b\\c\/d\b\f\n\r\té\u0000\u001F"}`, `{"pair":"\'"}`, `{"pair":"\x"}`, `{"pair":"\u12"}`,
		// Numbers.
		`{"options":{"workers":1.0}}`, `{"options":{"workers":1e2}}`, `{"options":{"workers":-0}}`,
		`{"options":{"workers":01}}`, `{"options":{"workers":-}}`, `{"options":{"workers":"1"}}`,
		`{"options":{"max_states":9223372036854775807,"timeout_ms":-9223372036854775808}}`,
		`{"options":{"max_states":9223372036854775808}}`, `{"options":{"timeout_ms":-9223372036854775809}}`,
		`{"options":{"max_memo_mb":99999999999999999999}}`,
		// Structure and trailing data.
		`{}`, `{"models":[]}`, ` {"pair" : "x" , "options" : { } } ` + "\n\t\r",
		`{"pair":"x",}`, `{"pair":"x"}x`, `{"pair":"x"}{}`, `{"pair":"x"`, `[]`, ``,
	} {
		f.Add(byte(0), []byte(s))
	}
	for _, s := range []string{
		`{"items":[{"id":"a","pair":"p","model":"SC"}],"items":[{"model":"LC"}]}`,
		`{"items":[{"model":"SC","model":"LC"}]}`,
		`{"items":[{"Model":"SC"}]}`, `{"items":null}`, `{"items":[null]}`, `{"items":[]}`, `{"items":[{}]}`,
		`{"items":[{"root_lo":9223372036854775807,"root_hi":-9223372036854775808}]}`,
		`{"items":[{"root_lo":1.0}]}`, `{"items":[{"root_hi":9223372036854775808}]}`,
		// The repeated-literal rule: a copy must end where the first did.
		`{"items":[{"pair":"` + long + `"},{"pair":"` + long + `"},{"pair":"` + long + `x"},{"pair":"` + long + `"}]}`,
		`{"items":[{"pair":"` + long + `\\"},{"pair":"` + long + `\\"},{"pair":"` + long + `\\\""}]}`,
		`{"items":[{"pair":"` + long + `\""},{"pair":"` + long + `\"\""}]}`,
		`{"items":[{"pair":"` + long + `"},{"id":"` + long + `"}]}`,
	} {
		f.Add(byte(1), []byte(s))
	}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		if which%2 == 0 {
			readerMatchesJSON[CheckRequest](t, body)
		} else {
			readerMatchesJSON[BatchRequest](t, body)
		}
	})
}

func readerMatchesJSON[T any](t *testing.T, body []byte) {
	var got, zero T
	b := append([]byte(nil), body...)
	if !readRequest(b, &got) {
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("the reader left %q but not a zero %T: %+v", body, got, got)
		}
		return
	}
	var want T
	if err := decodeJSON(bytes.NewReader(body), &want); err != nil {
		t.Fatalf("the reader took %q as %T, encoding/json rejects it: %v", body, got, err)
	}
	clear(b) // a decoded string that aliased the body changes with it
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the reader decoded %q as %+v, encoding/json as %+v", body, got, want)
	}
	if err := exactSubset(body); err != nil {
		t.Fatalf("the reader took %q: %v", body, err)
	}
}

// requestKeys are the wire names of CheckRequest's and BatchRequest's
// fields, nested ones included.
var requestKeys = map[string]bool{
	"pair": true, "models": true, "options": true, "items": true, "id": true, "model": true,
	"root_lo": true, "root_hi": true, "timeout_ms": true, "max_states": true, "max_memo_mb": true, "workers": true,
}

// exactSubset checks, on encoding/json's tokens, the part of the
// reader's subset that decoded values do not show: every object key is
// a request key spelled exactly and given once per object, and no value
// is null.
func exactSubset(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	type frame struct {
		key  bool // an object expecting a key or its end
		seen map[string]bool
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.key {
			if tok == json.Delim('}') {
				stack = stack[:len(stack)-1]
				continue
			}
			k := tok.(string)
			if !requestKeys[k] || top.seen[k] {
				return fmt.Errorf("key %q is not a request key spelled exactly once", k)
			}
			top.seen[k], top.key = true, false
			continue
		}
		if top != nil && top.seen != nil {
			top.key = true // the value read now is the member's
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{key: true, seen: map[string]bool{}})
		case json.Delim('['):
			stack = append(stack, &frame{})
		case json.Delim(']'):
			stack = stack[:len(stack)-1]
		case nil:
			return fmt.Errorf("null value")
		}
	}
}
