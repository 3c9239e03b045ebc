package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ccbench compare BASE CHANGE reads two -out files, each holding several
// end-to-end runs per workload, and judges every (workload, end-to-end
// metric) pairing against the metric's bound:
//
//	agree       the change's median is no worse than the base's by more than the bound
//	worse       it is worse by more than the bound, and the runs are steady enough to say so
//	unresolved  the run-to-run spread (interquartile distance over median, either side)
//	            exceeds the bound, so no verdict can be given — unless every change run
//	            beats every base run, which is reported as agree
//
// A workload missing from either file, or any run with a wrong answer or
// a failure, fails the comparison. The exit code is 0 only when every
// pairing agrees.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: ccbench compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	base, err := readRecords(args[0])
	if err == nil {
		var change map[string][]result
		change, err = readRecords(args[1])
		if err == nil {
			if compare(base, change, stdout) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintf(stderr, "ccbench compare: %v\n", err)
	return 2
}

// readRecords loads the end-to-end records of an -out file by workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// verdict judges one metric: a are the base runs, b the change's.
func verdict(m metric, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	sp := max(spread(a), spread(b))
	switch {
	case allBetter(m, a, b):
		return "agree", worse, sp
	case sp > m.Bound:
		return "unresolved", worse, sp
	case worse > m.Bound:
		return "worse", worse, sp
	default:
		return "agree", worse, sp
	}
}

// allBetter reports whether every change run beats every base run.
func allBetter(m metric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher") != (y > x) || x == y {
				return false
			}
		}
	}
	return true
}

// compare prints the judgement table and reports whether every pairing
// agrees.
func compare(base, change map[string][]result, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "%-11s %-18s %5s %5s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "runs", "base median", "change median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloadNames() {
		a, b := base[wl], change[wl]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "%-11s missing from %s\n", wl, map[bool]string{true: "base", false: "change"}[len(a) == 0])
			ok = false
			continue
		}
		if bad := failedRuns(a) + failedRuns(b); bad > 0 {
			fmt.Fprintf(w, "%-11s %d run(s) with wrong answers or failures\n", wl, bad)
			ok = false
		}
		for _, m := range endToEnd {
			av, bv := metricValues(a, m.Name), metricValues(b, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-11s %-18s missing\n", wl, m.Name)
				ok = false
				continue
			}
			v, worse, sp := verdict(m, av, bv)
			ok = ok && v == "agree"
			fmt.Fprintf(w, "%-11s %-18s %5d %5d %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, m.Name, len(av), len(bv), median(av), median(bv), 100*worse, 100*sp, 100*m.Bound, v)
		}
	}
	return ok
}

func failedRuns(rs []result) int {
	n := 0
	for _, r := range rs {
		if !r.Correct || r.Failed > 0 {
			n++
		}
	}
	return n
}

func metricValues(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
