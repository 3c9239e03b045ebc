package serve

import (
	"math"
	"testing"
	"time"
)

func TestClampInt64(t *testing.T) {
	cases := []struct {
		req, max, want int64
	}{
		{0, 0, 0},    // no ceiling, no request: unlimited
		{5, 0, 5},    // no ceiling: request passes through
		{0, 10, 10},  // no request: ceiling is the default
		{5, 10, 5},   // under ceiling: honored
		{15, 10, 10}, // over ceiling: capped
		{-1, 10, 10}, // negative: treated as "default"
	}
	for _, tc := range cases {
		if got := clampInt64(tc.req, tc.max); got != tc.want {
			t.Errorf("clampInt64(%d, %d) = %d, want %d", tc.req, tc.max, got, tc.want)
		}
	}
}

func TestSearchOptionsClamping(t *testing.T) {
	l := Limits{
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     10 * time.Second,
		MaxStates:      1000,
		MaxMemoMB:      8,
		MaxWorkers:     4,
	}
	opts, timeout := l.searchOptions(Options{})
	if opts.Budget != 1000 || opts.MaxMemoBytes != 8<<20 || opts.Workers != 4 {
		t.Errorf("defaults not applied: %+v", opts)
	}
	if timeout != 2*time.Second {
		t.Errorf("default timeout = %v, want 2s", timeout)
	}

	opts, timeout = l.searchOptions(Options{TimeoutMS: 500, MaxStates: 100, MaxMemoMB: 2, Workers: 2})
	if opts.Budget != 100 || opts.MaxMemoBytes != 2<<20 || opts.Workers != 2 {
		t.Errorf("under-limit request not honored: %+v", opts)
	}
	if timeout != 500*time.Millisecond {
		t.Errorf("timeout = %v, want 500ms", timeout)
	}

	opts, timeout = l.searchOptions(Options{TimeoutMS: 60_000, MaxStates: 1 << 40, Workers: 99})
	if opts.Budget != 1000 || opts.Workers != 4 {
		t.Errorf("over-limit request not capped: %+v", opts)
	}
	if timeout != 10*time.Second {
		t.Errorf("timeout = %v, want capped at 10s", timeout)
	}
}

func TestSearchOptionsNoLimits(t *testing.T) {
	opts, timeout := Limits{}.searchOptions(Options{MaxStates: 7, Workers: 3})
	if opts.Budget != 7 || opts.Workers != 3 || timeout != 0 {
		t.Errorf("limitless server altered the request: %+v, %v", opts, timeout)
	}
}

// TestSearchOptionsSaturate: the MiB and millisecond conversions
// saturate instead of wrapping. An oversized request gets the ceiling,
// or the largest representable value when there is none; requests in
// range keep their values and their cache fingerprint.
func TestSearchOptionsSaturate(t *testing.T) {
	// ccmd's default limits: a 30 s default and a 5 min ceiling on the
	// deadline, no memo ceiling.
	ccmd := Limits{DefaultTimeout: 30 * time.Second, MaxTimeout: 5 * time.Minute}
	const maxMiB = math.MaxInt64 >> 20
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	cases := []struct {
		name    string
		l       Limits
		o       Options
		memo    int64
		timeout time.Duration
		print   string // fingerprint, when pinned
	}{
		{name: "in range", l: ccmd, o: Options{MaxMemoMB: 3, TimeoutMS: 1500},
			memo: 3 << 20, timeout: 1500 * time.Millisecond, print: "budget=0,memo=3145728,workers=0"},
		{name: "largest exact MiB", o: Options{MaxMemoMB: maxMiB}, memo: maxMiB << 20},
		{name: "2^43+7 MiB was negative (unlimited)", o: Options{MaxMemoMB: 1<<43 + 7}, memo: math.MaxInt64},
		{name: "2^44+1 MiB was a 1 MiB cap", o: Options{MaxMemoMB: 1<<44 + 1}, memo: math.MaxInt64},
		{name: "oversized MiB under a ceiling", l: Limits{MaxMemoMB: 8}, o: Options{MaxMemoMB: 1<<44 + 1},
			memo: 8 << 20, print: "budget=0,memo=8388608,workers=0"},
		{name: "oversized MiB ceiling", l: Limits{MaxMemoMB: 1 << 44}, memo: math.MaxInt64},
		{name: "oversized negative MiB stays negative (unlimited)", o: Options{MaxMemoMB: -(1<<44 + 1)}, memo: math.MinInt64},
		{name: "timeout past the ceiling was 448µs", l: ccmd, o: Options{TimeoutMS: 18446744073710}, timeout: 5 * time.Minute},
		{name: "oversized timeout, no ceiling", o: Options{TimeoutMS: maxMS + 1}, timeout: math.MaxInt64},
		{name: "largest exact timeout", o: Options{TimeoutMS: maxMS}, timeout: time.Duration(maxMS) * time.Millisecond},
		{name: "oversized negative timeout is the default", l: ccmd, o: Options{TimeoutMS: -18446744073710}, timeout: 30 * time.Second},
	}
	for _, tc := range cases {
		opts, timeout := tc.l.searchOptions(tc.o)
		if opts.MaxMemoBytes != tc.memo || timeout != tc.timeout {
			t.Errorf("%s: memo %d bytes, timeout %v; want %d, %v", tc.name, opts.MaxMemoBytes, timeout, tc.memo, tc.timeout)
		}
		if tc.print != "" {
			if got := tc.l.optionsFingerprint(tc.o); got != tc.print {
				t.Errorf("%s: fingerprint %q, want %q", tc.name, got, tc.print)
			}
		}
	}
}

// TestOptionsFingerprintExcludesTimeout: the timeout only shapes
// INCONCLUSIVE outcomes, which are never cached, so it must not
// fragment the cache key space.
func TestOptionsFingerprintExcludesTimeout(t *testing.T) {
	l := Limits{MaxStates: 1000}
	a := l.optionsFingerprint(Options{TimeoutMS: 100})
	b := l.optionsFingerprint(Options{TimeoutMS: 9000})
	if a != b {
		t.Errorf("fingerprint varies with timeout: %q vs %q", a, b)
	}
	if l.optionsFingerprint(Options{MaxStates: 10}) == a {
		t.Error("fingerprint ignores the state budget")
	}
}

func TestValidModels(t *testing.T) {
	known := []string{"SC", "LC", "NN"}
	got, err := validModels(nil, known)
	if err != nil || len(got) != 3 {
		t.Errorf("nil request = %v, %v; want all known", got, err)
	}
	got, err = validModels([]string{"LC", "SC"}, known)
	if err != nil || got[0] != "LC" || got[1] != "SC" {
		t.Errorf("order not preserved: %v, %v", got, err)
	}
	if _, err := validModels([]string{"TSO"}, known); err == nil {
		t.Error("unknown model accepted")
	}
}
