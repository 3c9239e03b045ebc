package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/serve"
)

// The post-mortem pins: testdata/verify_pins.txt holds, for every
// testdata/*.trace and for pinTraces seeded traces, hashes of what the
// three trace frontends answer: verify's stdout, stderr and exit code
// with no other flag, with -witness, with -stream -witness, with
// -max-states 5 and with -max-states 18 (a budget some searches of
// relaxed traces outgrow after LC is decided); the POST /v1/verify body
// with default options and with max_states 18; and the POST /v1/trace
// violation and final records (heartbeats are timing, not answers). They were recorded
// before the three frontends shared one checker call and one result
// shape. Every search runs on one worker (-workers 1, and a server
// whose MaxWorkers is 1), because a parallel search's state counts
// depend on the schedule.
//
// VERIFY_PINS_RECORD=1 rewrites the file from the code under test.

const pinTraces = 200

// pinTrace draws a trace from rng and writes it by hand, so the pins do
// not depend on the codec they help check. The reads start from the
// last writers of a seeded topological sort (explainable under SC);
// fam then perturbs them toward the other outcomes: 0 none, 1 one read
// moved to another write or ⊥, 2 each read moved with probability 0.3,
// 3 one read moved over colliding write values, 4 a larger trace with
// one read moved or, half the time, given a value no write stores, and
// 5 (three draws in eight) none, but over a few threads, each
// location's reads following a sort of their own.
func pinTrace(rng *rand.Rand, fam int) string {
	n := 4 + rng.Intn(11)
	switch fam {
	case 4:
		n = 14 + rng.Intn(9)
	case 5:
		n = 6 + rng.Intn(11)
	}
	g := dag.Random(rng, n, 0.25)
	k, ahead := 2+rng.Intn(2), rng.Intn(3)
	if fam == 5 {
		// k threads, node u in thread u mod k, with few edges between
		// them: the store-buffer and message-passing shapes.
		g = dag.New(n)
		for u := 0; u < n; u++ {
			if u+k < n {
				g.MustAddEdge(dag.Node(u), dag.Node(u+k))
			}
			for v := u + 1; v < n; v++ {
				if (v-u)%k != 0 && rng.Float64() < 0.05 {
					g.MustAddEdge(dag.Node(u), dag.Node(v))
				}
			}
		}
	}
	all := computation.AllOps(2)
	ops := make([]computation.Op, n)
	for u := range ops {
		ops[u] = all[rng.Intn(len(all))]
		if t := computation.Loc(u % k % 2); fam == 5 {
			// An even thread writes x and reads y, an odd one the reverse.
			ops[u] = computation.W(t)
			if rng.Intn(2) == 0 {
				ops[u] = computation.R(1 - t)
			}
		}
	}
	val := make([]int, n)
	for u := range val {
		val[u] = u + 1
		if fam == 3 {
			val[u] = 1 + rng.Intn(2)
		}
	}
	// src[u] is read u's writer (-1 for ⊥): the last write to its
	// location in a seeded topological sort, one sort for the whole
	// trace or, in family 5, one per location (explainable under LC)
	// that runs a different thread as far ahead as it can.
	src := make([]int, n)
	for l := computation.Loc(0); l < 2; l++ {
		if l == 1 && fam != 5 {
			break
		}
		indeg := make([]int, n)
		for u := range indeg {
			indeg[u] = g.InDegree(dag.Node(u))
		}
		last := []int{-1, -1}
		order := rng.Perm(n)
		if fam == 5 {
			first := (ahead + int(l)) % k
			sort.SliceStable(order, func(i, j int) bool {
				return order[i]%k == first && order[j]%k != first
			})
		}
		for done := 0; done < n; done++ {
			for _, u := range order {
				if indeg[u] != 0 {
					continue
				}
				indeg[u] = -1
				switch op := ops[u]; {
				case op.Kind == computation.Write:
					last[op.Loc] = u
				case op.Kind == computation.Read && (fam != 5 || op.Loc == l):
					src[u] = last[op.Loc]
				}
				for _, v := range g.Succs(dag.Node(u)) {
					indeg[v]--
				}
				break
			}
		}
	}
	readVal := make([]string, n)
	var reads []int
	for u, op := range ops {
		if op.Kind == computation.Read {
			reads = append(reads, u)
			readVal[u] = "?"
			if src[u] >= 0 {
				readVal[u] = fmt.Sprint(val[src[u]])
			}
		}
	}
	// move gives read u the value of a random write to its location
	// (following u or not), or ⊥.
	move := func(u int) {
		choices := []string{"?"}
		for w, op := range ops {
			if op.Kind == computation.Write && op.Loc == ops[u].Loc {
				choices = append(choices, fmt.Sprint(val[w]))
			}
		}
		readVal[u] = choices[rng.Intn(len(choices))]
	}
	if len(reads) > 0 {
		switch fam {
		case 1, 3:
			move(reads[rng.Intn(len(reads))])
		case 2:
			for _, u := range reads {
				if rng.Float64() < 0.3 {
					move(u)
				}
			}
		case 4:
			u := reads[rng.Intn(len(reads))]
			if rng.Intn(2) == 0 {
				readVal[u] = "99"
			} else {
				move(u)
			}
		}
	}
	var b strings.Builder
	b.WriteString("locs x y\n")
	for u, op := range ops {
		switch op.Kind {
		case computation.Write:
			fmt.Fprintf(&b, "node n%d W(%s) = %d\n", u, []string{"x", "y"}[op.Loc], val[u])
		case computation.Read:
			fmt.Fprintf(&b, "node n%d R(%s) = %s\n", u, []string{"x", "y"}[op.Loc], readVal[u])
		default:
			fmt.Fprintf(&b, "node n%d N\n", u)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "edge n%d n%d\n", e[0], e[1])
	}
	return b.String()
}

func pinHash(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:6])
}

func TestVerifyPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("1,800 runs")
	}
	type input struct{ name, text string }
	var inputs []input
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no trace corpus: %v (%v)", files, err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(file), string(data)})
	}
	rng := rand.New(rand.NewSource(3301))
	for i := 0; i < pinTraces; i++ {
		inputs = append(inputs, input{fmt.Sprintf("seed%03d", i), pinTrace(rng, min(i%8, 5))})
	}

	ts := httptest.NewServer(serve.New(serve.Config{Limits: serve.Limits{MaxWorkers: 1}}).Handler())
	defer ts.Close()
	post := func(path string, body []byte) []byte {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "verify-pins")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%v): %s", path, resp.StatusCode, err, data)
		}
		return data
	}
	dir := t.TempDir()
	flagSets := [][]string{nil, {"-witness"}, {"-stream", "-witness"}, {"-max-states", "5"}, {"-max-states", "18"}}
	outcomes := map[string]int{}
	var got []string
	for _, in := range inputs {
		file := filepath.Join(dir, in.name+".trace")
		if err := os.WriteFile(file, []byte(in.text), 0o644); err != nil {
			t.Fatal(err)
		}
		line := []string{in.name}
		for i, flags := range flagSets {
			var out, errb bytes.Buffer
			args := append(append([]string{"-workers", "1"}, flags...), file)
			code := run(args, &out, &errb)
			line = append(line, pinHash(out.Bytes(), errb.Bytes(), []byte(fmt.Sprint(code))))
			switch s := out.String(); {
			case i == 3 && code == 3:
				outcomes["budget-inconclusive"]++
			case i == 4 && strings.Contains(s, "LC: explainable") && strings.Contains(s, "SC: INCONCLUSIVE"):
				outcomes["LC-explainable-SC-inconclusive"]++
			case i != 0:
			case strings.HasPrefix(s, "UNEXPLAINABLE"):
				outcomes["unexplainable"]++
			case strings.Contains(s, "=> a relaxed"):
				outcomes["relaxed"]++
			case strings.Contains(s, "=> not even location consistent"):
				outcomes["LC-violated"]++
			case code == 0:
				outcomes["explainable"]++
			}
		}
		for _, opts := range []serve.Options{{}, {MaxStates: 18}} {
			body, err := json.Marshal(serve.VerifyRequest{Trace: in.text, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			line = append(line, pinHash(post("/v1/verify", body)))
		}
		var events bytes.Buffer
		var errb bytes.Buffer
		if code := run([]string{"-events", file}, &events, &errb); code != 0 {
			t.Fatalf("%s: -events exit %d: %s", in.name, code, errb.String())
		}
		var records [][]byte
		sc := bufio.NewScanner(bytes.NewReader(post("/v1/trace", events.Bytes())))
		for sc.Scan() {
			if !bytes.HasPrefix(sc.Bytes(), []byte(`{"type":"heartbeat"`)) {
				records = append(records, append([]byte(nil), sc.Bytes()...))
			}
		}
		line = append(line, pinHash(records...))
		got = append(got, strings.Join(line, " "))
	}
	t.Logf("outcomes: %v", outcomes)
	for _, want := range []string{"explainable", "relaxed", "LC-violated", "unexplainable", "budget-inconclusive", "LC-explainable-SC-inconclusive"} {
		if outcomes[want] == 0 {
			t.Errorf("no pinned input reaches the %s outcome (%v)", want, outcomes)
		}
	}

	path := filepath.Join("testdata", "verify_pins.txt")
	if os.Getenv("VERIFY_PINS_RECORD") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d pins for %d inputs", len(want), len(got))
	}
	labels := []string{"verify", "verify -witness", "verify -stream -witness", "verify -max-states 5",
		"verify -max-states 18", "/v1/verify", "/v1/verify max_states 18", "/v1/trace"}
	bad := 0
	for i := range got {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(g) != len(w) || g[0] != w[0] {
			t.Fatalf("pin line %d is %q, want the shape of %q", i, want[i], got[i])
		}
		for j := 1; j < len(g); j++ {
			if g[j] != w[j] {
				if bad++; bad <= 5 {
					t.Errorf("%s: %s drifted from its pin:\n%s", g[0], labels[j-1], inputs[i].text)
				}
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d outputs drifted", bad, len(got)*len(labels))
	}
}
