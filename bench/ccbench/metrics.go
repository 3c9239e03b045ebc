package main

import (
	"math"
	"sort"
)

// metric describes one reported number. BENCHMARK.json at the
// repository root lists the same metrics; a test keeps the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the baseline median a change may lose
}

// endToEnd are the numbers a user of ccmd and cmd/lattice sees. Every
// workload reports all of them; an "operation" is one /v1/check or
// /v1/batch exchange on the server workloads and one CLI run on the
// lattice ones.
var endToEnd = []metric{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's numbers, one group per layer. Every
// traced run reports all of them (see README.md for which workload each
// group belongs to and which end-to-end metric it should move).
var perLayer = func() []metric {
	var out []metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metric{Name: n, Unit: unit, Better: better})
		}
	}
	// Serve and decide path, mean per sampled request.
	add("us", "lower", "exchange_us", "http.decode_us", "parse.pair_us", "canon.key_us")
	for _, m := range models {
		add("us", "lower", "decide."+m+"_us")
	}
	add("us", "lower", "render.json_us", "unattributed_us")
	// Search engine, mean per sampled request (SC and TSO searches).
	add("count", "lower", "search.states", "search.memo_hits", "search.pruned")
	add("count", "higher", "search.sleep_set_pruned")
	add("ratio", "higher", "decide.in_ratio.SC", "decide.in_ratio.TSO")
	// Cache, admission and process, over the timed closed loop.
	add("ratio", "higher", "cache.hit_ratio")
	add("count", "lower", "cache.evictions")
	add("bytes", "lower", "cache.bytes")
	add("count", "lower", "admission.shed", "engine.states_per_req")
	add("us", "lower", "daemon.cpu_us_per_req", "client.cpu_us_per_req")
	// Figure 1 sweep stages.
	add("ms", "lower", "sweep.enumerate_ms")
	add("count", "lower", "sweep.representatives")
	add("ms", "lower", "sweep.observers_ms")
	add("count", "lower", "sweep.pairs")
	add("ms", "lower", "sweep.pattern_decide_ms")
	add("ns", "lower", "sweep.pattern_decide_ns_per_pair")
	add("ms", "lower", "sweep.aux_ms", "sweep.witnesses_ms", "sweep.unattributed_ms")
	// NN* fixpoint stages.
	add("ms", "lower", "star.universe_ms")
	add("count", "lower", "star.computations")
	add("ms", "lower", "star.membership_ms", "star.constructible_ms", "star.fixpoint_ms")
	add("count", "lower", "star.survivors")
	add("ms", "lower", "star.pairset_lookup_ms", "star.compare_ms", "star.unattributed_ms")
	return out
}()

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// median returns the median of xs (0 for none). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive").
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	// statistics.quantiles, method="exclusive", transcribed: positions
	// are clamped to [1, n-1], so small samples extrapolate.
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentileMS returns the q-quantile (0 < q ≤ 1) of latencies in ns as
// milliseconds, by the nearest-rank rule. It sorts lat.
func percentileMS(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := int(math.Ceil(q*float64(len(lat)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(lat[rank]) / 1e6
}
