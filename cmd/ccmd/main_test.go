package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// syncBuffer lets the test read the daemon's output while run is
// still writing it from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRE = regexp.MustCompile(`serving on http://(\S+)`)

// startDaemon runs the daemon on a free port and returns its base URL
// and a channel carrying run's exit code after cancel fires.
func startDaemon(t *testing.T, args []string, out, errb *syncBuffer) (base string, cancel func(), done chan int) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	done = make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out, errb)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], stop, done
		}
		select {
		case code := <-done:
			stop()
			t.Fatalf("daemon exited early with %d; stderr: %s", code, errb.String())
		default:
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("daemon never announced its address; stdout: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunServesChecksAndDrains is the daemon's lifecycle contract:
// it announces its address, answers decision queries (with the
// verdict cache visible on repeats), and a signal — modeled by the
// context cancel main wires to SIGTERM/SIGINT — drains it to a clean
// exit 0 without leaking goroutines.
func TestRunServesChecksAndDrains(t *testing.T) {
	baseG := runtime.NumGoroutine()
	var out, errb syncBuffer
	base, cancel, done := startDaemon(t, nil, &out, &errb)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	pair, err := os.ReadFile("../../testdata/dekker.ccm")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.CheckRequest{Pair: string(pair)})
	var sources []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %d = %d: %s", i, resp.StatusCode, data)
		}
		if i == 0 && !strings.Contains(string(data), `"text":"IN"`) {
			t.Errorf("dekker check carries no IN verdict: %s", data)
		}
		sources = append(sources, resp.Header.Get("X-Ccmd-Cache"))
	}
	if sources[0] != "miss" || sources[1] != "hit" {
		t.Errorf("cache sources = %v, want [miss hit]", sources)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited after cancel")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("stdout missing drain confirmation:\n%s", out.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseG+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d, baseline %d", runtime.NumGoroutine(), baseG)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunWritesReport: the daemon participates in the shared
// observability contract — a -report run must produce a file that
// validates against the pinned report schema.
func TestRunWritesReport(t *testing.T) {
	reportFile := t.TempDir() + "/report.json"
	var out, errb syncBuffer
	base, cancel, done := startDaemon(t, []string{"-report", reportFile}, &out, &errb)

	pair, err := os.ReadFile("../../testdata/figure2.ccm")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.CheckRequest{Pair: string(pair)})
	resp, err := http.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	report, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := os.ReadFile("../../testdata/report.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReport(report, schema); err != nil {
		t.Errorf("daemon report violates the schema: %v", err)
	}
	if !strings.Contains(string(report), `"tool": "ccmd"`) && !strings.Contains(string(report), `"tool":"ccmd"`) {
		t.Errorf("report does not name the tool: %s", report)
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"positional"},
		{"-cache-mb", "-1"},
		{"-pprof", "999.999.999.999:0"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr: %s", args, code, errb.String())
		}
	}
}

// TestCacheMBSaturates: -cache-mb converts through the saturating MiB
// conversion. 2^43 MiB used to wrap to a negative capacity and 2^44+1
// MiB to 1 MiB; 2^44 MiB wrapped to 0 and silently turned storage off.
func TestCacheMBSaturates(t *testing.T) {
	for _, tc := range []struct {
		mb   int64
		want int64
	}{
		{0, 0},
		{1, 1 << 20},
		{1 << 43, math.MaxInt64},
		{1 << 44, math.MaxInt64},
		{1<<44 + 1, math.MaxInt64},
	} {
		var out, errb syncBuffer
		base, cancel, done := startDaemon(t, []string{"-cache-mb", strconv.FormatInt(tc.mb, 10)}, &out, &errb)
		resp, err := http.Get(base + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Statsz
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		cancel()
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if st.Cache.Capacity != tc.want {
			t.Errorf("-cache-mb %d: capacity_bytes %d, want %d", tc.mb, st.Cache.Capacity, tc.want)
		}
	}
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-cache-mb", "-1"}, &out, &errb); code != 2 {
		t.Errorf("-cache-mb -1: exit %d, want 2", code)
	}
}

// TestRunListenError: a dead listen address is a runtime error (exit
// 1), reported on stderr, not a hang.
func TestRunListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-addr", ln.Addr().String()}, &out, &errb); code != 1 {
		t.Fatalf("run on a bound port = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "address already in use") {
		t.Errorf("stderr does not explain the failure: %s", errb.String())
	}
}

// TestSlowLorisDropped: a connection that sends half a request line
// and then stalls must be cut off by -read-header-timeout instead of
// holding a server goroutine forever — and the daemon keeps serving
// honest clients throughout.
func TestSlowLorisDropped(t *testing.T) {
	var out, errb syncBuffer
	base, cancel, done := startDaemon(t, []string{"-read-header-timeout", "250ms"}, &out, &errb)
	defer func() { cancel(); <-done }()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: loris\r\nX-Stall")); err != nil {
		t.Fatal(err)
	}
	// Never finish the headers. The server must answer 408 and hang up
	// within the header deadline — not after our 5s read deadline.
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	data, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open 5s after stalling mid-headers")
	}
	if err != nil {
		t.Fatalf("reading the hang-up: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("server took %v to drop the stalled connection", elapsed)
	}
	// The exact parting status varies by Go version (408 or 400); what
	// matters is that it is an error, not a served request.
	if len(data) > 0 && !strings.Contains(string(data), "HTTP/1.1 4") {
		t.Errorf("parting response %q is not a client-error hang-up", data)
	}

	// The daemon is unharmed.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after loris = %d, want 200", resp.StatusCode)
	}
}

// TestDrainFlipsHealthzWhileWorkCompletes: the signal path must flip
// /healthz to 503 "draining" immediately — so load balancers stop
// routing — while already-admitted work runs to completion and the
// daemon still exits 0.
func TestDrainFlipsHealthzWhileWorkCompletes(t *testing.T) {
	var out, errb syncBuffer
	base, cancel, done := startDaemon(t, []string{
		"-slots", "1", "-timeout", "10s", "-drain-timeout", "30s",
	}, &out, &errb)

	// Occupy the only decision slot with a verification that needs a
	// couple of seconds: the pinned governance instance (seed 11) under
	// a wall-clock budget it cannot beat.
	tr := govTrace(11, 30, 8, 0.08, 2, 3, 3)
	body, _ := json.Marshal(serve.VerifyRequest{
		Trace:   renderTraceText(tr),
		Options: serve.Options{TimeoutMS: 3000},
	})
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()

	// Wait until the slot is actually held, then send the "signal".
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Statsz
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Admission.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow verify never occupied the decision slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()

	// healthz flips to "draining" promptly, while the listener is up.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("listener died before drain completed: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(data), "draining") {
				t.Errorf("healthz 503 body %q, want draining", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 after the signal")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The queued decision completes (INCONCLUSIVE at its own budget is
	// fine — the exchange must finish as a 200, not be severed).
	select {
	case code := <-inflight:
		if code != http.StatusOK {
			t.Errorf("in-flight verify finished with %d, want 200", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight verify never completed during drain")
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after drain")
	}
}
