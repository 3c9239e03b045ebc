package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/serve"
)

// ---- harness -------------------------------------------------------

var corpus = []string{
	"dekker.ccm",
	"figure2.ccm",
	"figure3.ccm",
	"figure4_prefix.ccm",
	"stale_read.ccm",
}

func readPair(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// startReplicas spins up n in-process ccmd replicas and returns their
// base URLs.
func startReplicas(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// singleBox decides the pair on one fresh replica through /v1/batch
// full-range items — the reference the fleet merge must reproduce.
func singleBox(t *testing.T, pair string, models []string) map[string]ModelOutcome {
	t.Helper()
	co, err := New(Config{Replicas: startReplicas(t, 1), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.Check(context.Background(), pair, models)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]ModelOutcome, len(rep.Outcomes))
	for _, o := range rep.Outcomes {
		out[o.Model] = o
	}
	return out
}

// eventLog is a concurrent-safe recorder for assertions.
type eventLog struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (l *eventLog) Record(ev obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, ev)
}

func (l *eventLog) count(k obs.Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func (l *eventLog) has(k obs.Kind, str string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.evs {
		if ev.Kind == k && ev.Str == str {
			return true
		}
	}
	return false
}

// checkAgainstReference asserts a fleet report reproduces the
// single-box outcomes byte-for-byte (verdict spelling, witnesses,
// violations).
func checkAgainstReference(t *testing.T, name string, rep *Report, want map[string]ModelOutcome) {
	t.Helper()
	for _, got := range rep.Outcomes {
		ref, ok := want[got.Model]
		if !ok {
			t.Fatalf("%s: unexpected model %s in report", name, got.Model)
		}
		if got.Verdict.String() != ref.Verdict.String() {
			t.Errorf("%s/%s: verdict %s, single-box %s", name, got.Model, got.Verdict, ref.Verdict)
		}
		if got.Witness != ref.Witness {
			t.Errorf("%s/%s: witness %q, single-box %q", name, got.Model, got.Witness, ref.Witness)
		}
		if strings.Join(got.LocWitnesses, "|") != strings.Join(ref.LocWitnesses, "|") {
			t.Errorf("%s/%s: loc witnesses %v, single-box %v", name, got.Model, got.LocWitnesses, ref.LocWitnesses)
		}
		if got.Violation != ref.Violation {
			t.Errorf("%s/%s: violation %q, single-box %q", name, got.Model, got.Violation, ref.Violation)
		}
	}
}

// ---- conformance ---------------------------------------------------

// TestFleetMatchesSingleBox is the core determinism property: a
// fault-free fleet run over 3 replicas with sharded SC merges to
// exactly the single-box answer for every corpus pair and model.
func TestFleetMatchesSingleBox(t *testing.T) {
	replicas := startReplicas(t, 3)
	for _, name := range corpus {
		pair := readPair(t, name)
		want := singleBox(t, pair, nil)
		for _, shards := range []int{1, 2, 4} {
			co, err := New(Config{Replicas: replicas, Shards: shards, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := co.Check(context.Background(), pair, nil)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			checkAgainstReference(t, name, rep, want)
			if rep.Degraded || rep.Lost > 0 {
				t.Errorf("%s shards=%d: fault-free run degraded (%+v)", name, shards, rep)
			}
			if rep.ShardsDone != rep.ShardsTotal {
				t.Errorf("%s shards=%d: coverage %d/%d on a fault-free run", name, shards, rep.ShardsDone, rep.ShardsTotal)
			}
			for _, o := range rep.Outcomes {
				if !o.WitnessCanonical {
					t.Errorf("%s shards=%d %s: witness not canonical on a fault-free run", name, shards, o.Model)
				}
			}
		}
	}
}

// TestFleetShardCoverage checks the plan accounting: SC splits into the
// requested shard count (clamped to the frontier) and the polynomial
// models stay whole.
func TestFleetShardCoverage(t *testing.T) {
	replicas := startReplicas(t, 2)
	co, err := New(Config{Replicas: replicas, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.Check(context.Background(), readPair(t, "dekker.ccm"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.Model == "SC" {
			if o.ShardsTotal < 1 || o.ShardsTotal > 2 {
				t.Errorf("SC planned %d shards, want 1..2", o.ShardsTotal)
			}
		} else if o.ShardsTotal != 1 {
			t.Errorf("%s planned %d shards, want 1", o.Model, o.ShardsTotal)
		}
	}
}

// ---- retry ---------------------------------------------------------

// TestFleetRetriesDrop: a dropped exchange is retried on another
// replica and the answer is unharmed.
func TestFleetRetriesDrop(t *testing.T) {
	replicas := startReplicas(t, 2)
	pair := readPair(t, "figure2.ccm")
	want := singleBox(t, pair, nil)

	ft := NewFaultTransport(&FaultPlan{Events: []FaultEvent{{Kind: FaultDrop}}}, nil)
	log := &eventLog{}
	co, err := New(Config{
		Replicas: replicas, Shards: 1, Transport: ft, Recorder: log,
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.Check(context.Background(), pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "figure2", rep, want)
	if rep.Retries == 0 {
		t.Error("dropped exchange produced no retry")
	}
	if rep.Degraded {
		t.Errorf("one drop degraded the run: %+v", rep)
	}
	if !ft.AllFired() {
		t.Error("fault plan did not fire")
	}
	if log.count(obs.ShardRetry) == 0 {
		t.Error("no ShardRetry event emitted")
	}
}

// TestFleetRetriesCorrupt: a torn response body is a hard failure the
// coordinator rejects and retries, never a wrong answer.
func TestFleetRetriesCorrupt(t *testing.T) {
	replicas := startReplicas(t, 2)
	pair := readPair(t, "stale_read.ccm")
	want := singleBox(t, pair, nil)

	ft := NewFaultTransport(&FaultPlan{Events: []FaultEvent{{Kind: FaultCorrupt}}}, nil)
	co, err := New(Config{
		Replicas: replicas, Shards: 1, Transport: ft,
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.Check(context.Background(), pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "stale_read", rep, want)
	if rep.Retries == 0 || rep.Degraded {
		t.Errorf("corrupt response: retries=%d degraded=%v", rep.Retries, rep.Degraded)
	}
	if !ft.AllFired() {
		t.Error("corrupt fault did not fire")
	}
}

// TestFleetHonorsRetryAfter: a shed (503) backs off at least the
// replica's Retry-After hint before the retry lands.
func TestFleetHonorsRetryAfter(t *testing.T) {
	replicas := startReplicas(t, 1)
	pair := readPair(t, "figure3.ccm")

	ft := NewFaultTransport(&FaultPlan{Events: []FaultEvent{{Kind: Fault503, RetryAfter: 1}}}, nil)
	co, err := New(Config{
		Replicas: replicas, Shards: 1, Transport: ft,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := co.Check(context.Background(), pair, []string{"LC"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("shed degraded the run: %+v", rep)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retry landed after %v, before the 1s Retry-After hint", elapsed)
	}
	// Shed is backpressure: the breaker must still be closed.
	if s := co.breakers[0].snapshot(); s != breakerClosed {
		t.Errorf("breaker %v after a shed, want closed", s)
	}
}

// ---- hedging -------------------------------------------------------

// TestFleetHedgesStraggler: a delayed primary is hedged to the second
// replica, the hedge wins, and the straggler's eventual fate never
// counts against anyone.
func TestFleetHedgesStraggler(t *testing.T) {
	replicas := startReplicas(t, 2)
	pair := readPair(t, "figure2.ccm")
	want := singleBox(t, pair, nil)

	ft := NewFaultTransport(&FaultPlan{Events: []FaultEvent{{Kind: FaultDelay, Delay: 30 * time.Second}}}, nil)
	log := &eventLog{}
	co, err := New(Config{
		Replicas: replicas, Shards: 1, Transport: ft, Recorder: log,
		HedgeAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := co.Check(context.Background(), pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedge did not rescue the straggler (took %v)", elapsed)
	}
	checkAgainstReference(t, "figure2", rep, want)
	if rep.Hedges == 0 {
		t.Error("no hedge counted")
	}
	if log.count(obs.ShardHedge) == 0 {
		t.Error("no ShardHedge event emitted")
	}
	if rep.Degraded || rep.Retries != 0 {
		t.Errorf("hedged run: degraded=%v retries=%d, want clean", rep.Degraded, rep.Retries)
	}
}

// ---- replica death and reissue -------------------------------------

// TestFleetReissuesAfterReplicaDeath: a replica that fails every
// exchange trips its breaker and its shards land on the survivor; the
// merged answer is complete and exact.
func TestFleetReissuesAfterReplicaDeath(t *testing.T) {
	replicas := startReplicas(t, 2)
	pair := readPair(t, "dekker.ccm")
	want := singleBox(t, pair, nil)

	// Every exchange to replica 0 drops, forever.
	dead := strings.TrimPrefix(replicas[0], "http://")
	var evs []FaultEvent
	for i := 0; i < 32; i++ {
		evs = append(evs, FaultEvent{Kind: FaultDrop, Replica: dead})
	}
	ft := NewFaultTransport(&FaultPlan{Events: evs}, nil)
	log := &eventLog{}
	co, err := New(Config{
		Replicas: replicas, Shards: 4, Transport: ft, Recorder: log,
		MaxAttempts: 6, BreakerThreshold: 2, BreakerCooldown: time.Minute,
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.Check(context.Background(), pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "dekker", rep, want)
	if rep.Degraded || rep.Lost > 0 {
		t.Errorf("survivor could not absorb the dead replica's shards: %+v", rep)
	}
	if rep.ShardsDone != rep.ShardsTotal {
		t.Errorf("coverage %d/%d after reissue, want full", rep.ShardsDone, rep.ShardsTotal)
	}
	if !log.has(obs.BreakerFlip, "open") {
		t.Error("dead replica's breaker never opened")
	}
}

// ---- graceful degradation ------------------------------------------

// TestFleetDegradesToTypedInconclusive: with every replica dead and
// retries exhausted, the merge degrades to INCONCLUSIVE(fleet) with
// exact shard coverage instead of erroring or fabricating a verdict.
func TestFleetDegradesToTypedInconclusive(t *testing.T) {
	// Two replicas that are immediately torn down: every dial fails.
	tsA := httptest.NewServer(serve.New(serve.Config{}).Handler())
	tsB := httptest.NewServer(serve.New(serve.Config{}).Handler())
	urls := []string{tsA.URL, tsB.URL}
	tsA.Close()
	tsB.Close()

	log := &eventLog{}
	co, err := New(Config{
		Replicas: urls, Shards: 2, Recorder: log,
		MaxAttempts: 2, BreakerThreshold: 100,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.Check(context.Background(), readPair(t, "dekker.ccm"), []string{"SC", "LC"})
	if err != nil {
		t.Fatalf("degradation must not surface as an error: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("all-dead fleet did not degrade")
	}
	if rep.ShardsDone != 0 {
		t.Errorf("ShardsDone = %d with every replica dead", rep.ShardsDone)
	}
	if rep.Lost != rep.ShardsTotal {
		t.Errorf("Lost = %d, want every one of the %d shards", rep.Lost, rep.ShardsTotal)
	}
	for _, o := range rep.Outcomes {
		if !o.Verdict.Inconclusive() || o.Verdict.Reason != search.StopFleet {
			t.Errorf("%s: verdict %s, want INCONCLUSIVE(fleet)", o.Model, o.Verdict)
		}
		if o.ShardsDone != 0 || o.ShardsTotal == 0 {
			t.Errorf("%s: coverage %d/%d, want 0/N", o.Model, o.ShardsDone, o.ShardsTotal)
		}
	}
	if log.count(obs.ShardDone) == 0 || !log.has(obs.ShardDone, "lost") {
		t.Error("lost shards emitted no ShardDone(lost) events")
	}
}

// TestFleetPartialLossKeepsDefinitiveIn: losing a shard above the
// witness root cannot flip a definitive In — a witness is a witness.
func TestFleetPartialLossKeepsDefinitiveIn(t *testing.T) {
	pair := readPair(t, "figure2.ccm") // SC member: every shard merge has a witness
	ref := singleBox(t, pair, []string{"SC"})
	if !ref["SC"].Verdict.In() {
		t.Skip("corpus changed: figure2 no longer SC-in")
	}
	// Simulate the loss in the merge directly: shard 0 holds the
	// witness, shard 1 was lost.
	u0 := &unit{key: "SC:0", shardIdx: 0, lo: 0, hi: 1,
		item:   serve.BatchItem{Model: "SC"},
		result: &serve.BatchResult{Verdict: search.VerdictIn(), Witness: ref["SC"].Witness, WitnessRoot: 0}}
	u1 := &unit{key: "SC:1", shardIdx: 1, lo: 1, hi: 2, item: serve.BatchItem{Model: "SC"}, lost: true}
	out := mergeSC([]*unit{u0, u1}, 2)
	if !out.Verdict.In() {
		t.Fatalf("merge verdict %s, want IN despite the lost shard", out.Verdict)
	}
	if !out.WitnessCanonical {
		t.Error("lost shard above the witness root must keep the witness canonical")
	}
	// The mirror case: the lost shard is below the winning root.
	u0.lo, u0.hi, u0.result.WitnessRoot = 1, 2, 1
	u1.lo, u1.hi = 0, 1
	out = mergeSC([]*unit{u0, u1}, 2)
	if !out.Verdict.In() || out.WitnessCanonical {
		t.Errorf("lost shard below the root: verdict %s canonical %v, want IN and non-canonical", out.Verdict, out.WitnessCanonical)
	}
	// A shard below the root that completed but stopped on a governed
	// limit did not exhaust its range either: same degradation.
	u1.lost = false
	u1.result = &serve.BatchResult{Verdict: search.VerdictInconclusive(search.StopBudget)}
	out = mergeSC([]*unit{u0, u1}, 2)
	if !out.Verdict.In() || out.WitnessCanonical {
		t.Errorf("inconclusive shard below the root: verdict %s canonical %v, want IN and non-canonical", out.Verdict, out.WitnessCanonical)
	}
	// But an inconclusive shard above the winning root is harmless.
	u0.lo, u0.hi, u0.result.WitnessRoot = 0, 1, 0
	u1.lo, u1.hi = 1, 2
	out = mergeSC([]*unit{u0, u1}, 2)
	if !out.Verdict.In() || !out.WitnessCanonical {
		t.Errorf("inconclusive shard above the root: verdict %s canonical %v, want IN and canonical", out.Verdict, out.WitnessCanonical)
	}
}

// ---- dispatch capacity ---------------------------------------------

// TestAssignOverflowReturned: units beyond the per-round batch capacity
// are handed back as overflow, never silently dropped.
func TestAssignOverflowReturned(t *testing.T) {
	co, err := New(Config{Replicas: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	units := make([]*unit, 150) // capacity is 64 * 2 = 128
	for i := range units {
		units[i] = &unit{key: string(rune('a' + i%26))}
	}
	batches, overflow := co.assign(units)
	placed := 0
	for _, b := range batches {
		if len(b.units) > 64 {
			t.Errorf("batch for replica %d holds %d units, cap 64", b.replica, len(b.units))
		}
		placed += len(b.units)
	}
	if placed != 128 || len(overflow) != 22 {
		t.Errorf("placed %d overflow %d, want 128/22", placed, len(overflow))
	}
	if placed+len(overflow) != len(units) {
		t.Errorf("assign lost units: %d in, %d out", len(units), placed+len(overflow))
	}
	// With every breaker open, everything overflows.
	for _, b := range co.breakers {
		b.failure()
		b.failure()
		b.failure()
	}
	batches, overflow = co.assign(units)
	if len(batches) != 0 || len(overflow) != len(units) {
		t.Errorf("open breakers: %d batches, %d overflow, want 0/%d", len(batches), len(overflow), len(units))
	}
}

// TestFleetOverflowUnitsAllDispatched: more ready units than one
// round's capacity (64 per replica) still all resolve — the overflow
// re-enters the queue instead of vanishing into INCONCLUSIVE(fleet).
func TestFleetOverflowUnitsAllDispatched(t *testing.T) {
	replicas := startReplicas(t, 1)
	pair := readPair(t, "figure3.ccm")
	co, err := New(Config{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	units := make([]*unit, 70)
	for i := range units {
		key := fmt.Sprintf("LC-%d", i)
		units[i] = &unit{key: key, item: serve.BatchItem{ID: key, Pair: pair, Model: "LC"}}
	}
	stats, err := co.run(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if stats.lost != 0 {
		t.Errorf("fault-free overflow run lost %d units", stats.lost)
	}
	for _, u := range units {
		if u.result == nil {
			t.Fatalf("unit %s never resolved: overflow was dropped", u.key)
		}
	}
}

// TestFleetConcurrentChecks: one Coordinator may serve concurrent
// Checks (the round-robin cursor is the only unguarded-looking shared
// state; this test gives the race detector something to chew on).
func TestFleetConcurrentChecks(t *testing.T) {
	replicas := startReplicas(t, 2)
	pair := readPair(t, "figure2.ccm")
	want := singleBox(t, pair, nil)
	co, err := New(Config{Replicas: replicas, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := co.Check(context.Background(), pair, nil)
			if err != nil {
				t.Errorf("concurrent Check: %v", err)
				return
			}
			checkAgainstReference(t, "figure2", rep, want)
		}()
	}
	wg.Wait()
}

// ---- breaker unit tests --------------------------------------------

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	var flips []string
	b := newBreaker(2, time.Second, now, func(s string) { flips = append(flips, s) })

	if !b.allow() {
		t.Fatal("fresh breaker must allow")
	}
	b.failure()
	if !b.allow() {
		t.Fatal("one failure below threshold must still allow")
	}
	b.failure() // threshold reached
	if b.snapshot() != breakerOpen {
		t.Fatalf("state %v after threshold, want open", b.snapshot())
	}
	if b.allow() {
		t.Fatal("open breaker within cooldown must reject")
	}
	clock = clock.Add(2 * time.Second)
	if !b.allow() {
		t.Fatal("cooled-down breaker must grant the half-open probe")
	}
	if b.snapshot() != breakerHalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.snapshot())
	}
	if b.allow() {
		t.Fatal("half-open breaker must grant only one probe")
	}
	b.failure() // probe failed
	if b.snapshot() != breakerOpen {
		t.Fatal("failed probe must re-open")
	}
	clock = clock.Add(2 * time.Second)
	if !b.allow() {
		t.Fatal("second probe window")
	}
	b.success()
	if b.snapshot() != breakerClosed || !b.allow() {
		t.Fatal("successful probe must close the circuit")
	}
	want := []string{"open", "half-open", "open", "half-open", "closed"}
	if strings.Join(flips, ",") != strings.Join(want, ",") {
		t.Errorf("flips %v, want %v", flips, want)
	}
}

func TestBreakerShedSemantics(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := newBreaker(2, time.Second, func() time.Time { return clock }, nil)
	// Sheds never open a closed breaker, no matter how many.
	for i := 0; i < 10; i++ {
		b.shed()
	}
	if b.snapshot() != breakerClosed {
		t.Fatal("sheds opened a closed breaker")
	}
	// A half-open probe answering 503 proves liveness: circuit closes.
	b.failure()
	b.failure()
	clock = clock.Add(2 * time.Second)
	if !b.allow() {
		t.Fatal("probe not granted")
	}
	b.shed()
	if b.snapshot() != breakerClosed {
		t.Fatalf("state %v after probe shed, want closed", b.snapshot())
	}
}

// ---- small pieces --------------------------------------------------

func TestParseRetryAfter(t *testing.T) {
	now := func() time.Time { return time.Unix(1_700_000_000, 0).UTC() }
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", time.Second},
		{"2", 2 * time.Second},
		{"0", time.Second},         // floor
		{"9999", 30 * time.Second}, // ceiling
		{"garbage", time.Second},   // malformed
		{now().Add(5 * time.Second).Format("Mon, 02 Jan 2006 15:04:05 GMT"), 5 * time.Second},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFleetInputErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no replicas must fail")
	}
	co, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Check(context.Background(), "nonsense", nil); err == nil {
		t.Error("malformed pair must be an input error")
	}
	if _, err := co.Check(context.Background(), readPair(t, "dekker.ccm"), []string{"XX"}); err == nil {
		t.Error("unknown model must be an input error")
	}
}

func TestFleetContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	co, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Check(ctx, readPair(t, "dekker.ccm"), []string{"LC"}); err == nil {
		t.Error("cancelled context must surface as an error")
	}
}
