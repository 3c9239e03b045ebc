// Command fleetctl is the fleet front door of the model checker: it
// reads (computation, observer function) pairs — the same text format
// ccmc checks on one box — and decides them against a fleet of ccmd
// replicas, sharding the SC search's root frontier across the fleet
// and merging the shard verdicts into exactly the single-box answer.
//
// Usage:
//
//	fleetctl -replicas URL[,URL...] [-models LIST] [-shards N] [-explain]
//	         [-max-attempts N] [-hedge-after D] [-timeout D] FILE...
//
// The dispatch layer is failure-first (see internal/fleet): failed
// shard batches retry with capped backoff honoring 503 Retry-After,
// stragglers are hedged to a second replica, per-replica circuit
// breakers keep dead replicas out of the rotation, and shards lost to
// replica death are reissued to survivors. When retries are exhausted
// the verdict degrades to a typed INCONCLUSIVE(fleet) and the exact
// shard coverage is reported on stderr.
//
// Exit codes: 0 on definitive verdicts (1 when -models selects a
// single model and it is OUT), 2 on usage errors (an unknown model in
// -models among them), 3 when any verdict is inconclusive — including
// fleet degradation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	replicas := fs.String("replicas", "", "comma-separated ccmd base URLs (required)")
	models := fs.String("models", "", "comma-separated models to check (default: all)")
	shards := fs.Int("shards", 0, "SC frontier shards per pair (0 = one per replica)")
	explain := fs.Bool("explain", false, "print violation/witness details")
	maxAttempts := fs.Int("max-attempts", 0, "dispatch attempts per shard before it is lost (0 = 4)")
	hedgeAfter := fs.Duration("hedge-after", 0, "re-dispatch a straggling shard batch after this long (0 = no hedging)")
	timeout := fs.Duration("timeout", 0, "per-decision wall-clock budget forwarded to the replicas (0 = replica default)")
	maxStates := fs.Int64("max-states", 0, "per-decision state budget forwarded to the replicas (0 = replica default)")
	maxMemoMB := fs.Int64("max-memo-mb", 0, "per-search memo cap in MiB forwarded to the replicas (0 = replica default)")
	workers := fs.Int("workers", 0, "engine workers per replica shard (0 = replica default)")
	requestTimeout := fs.Duration("request-timeout", 0, "HTTP timeout per dispatch attempt (0 = 60s)")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *replicas == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: fleetctl -replicas URL[,URL...] [-models LIST] [-shards N] [-explain] FILE...")
		return 2
	}
	return obsFlags.Run("fleetctl", args, stderr, func(rec obs.Recorder) int {
		return runChecks(fs.Args(), rec, *replicas, *models, *shards, *explain,
			*maxAttempts, *hedgeAfter, *timeout, *maxStates, *maxMemoMB, *workers, *requestTimeout, stdout, stderr)
	})
}

func runChecks(files []string, rec obs.Recorder, replicas, modelList string, shards int, explain bool,
	maxAttempts int, hedgeAfter, timeout time.Duration, maxStates, maxMemoMB int64, workers int,
	requestTimeout time.Duration, stdout, stderr io.Writer) int {

	var modelNames []string
	for _, m := range strings.Split(modelList, ",") {
		if m = strings.TrimSpace(m); m == "" {
			continue
		}
		e, err := memmodel.Lookup(m)
		if err != nil {
			fmt.Fprintln(stderr, "fleetctl:", err)
			return 2
		}
		modelNames = append(modelNames, e.Name())
	}

	co, err := fleet.New(fleet.Config{
		Replicas:    splitReplicas(replicas),
		Shards:      shards,
		MaxAttempts: maxAttempts,
		HedgeAfter:  hedgeAfter,
		Options: serve.Options{
			TimeoutMS: int64(timeout / time.Millisecond),
			MaxStates: maxStates,
			MaxMemoMB: maxMemoMB,
			Workers:   workers,
		},
		RequestTimeout: requestTimeout,
		Recorder:       rec,
	})
	if err != nil {
		fmt.Fprintln(stderr, "fleetctl:", err)
		return 2
	}

	anyOut, anyInconclusive := false, false
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "fleetctl:", err)
			return 1
		}
		pair := string(data)
		if len(files) > 1 {
			fmt.Fprintf(stdout, "== %s\n", path)
		}
		rep, err := co.Check(context.Background(), pair, modelNames)
		if err != nil {
			fmt.Fprintln(stderr, "fleetctl:", err)
			return 1
		}
		out, inconclusive := printReport(rep, pair, explain, stdout, stderr)
		anyOut = anyOut || out
		anyInconclusive = anyInconclusive || inconclusive
	}
	switch {
	case anyInconclusive:
		fmt.Fprintln(stderr, "fleetctl: inconclusive: raise budgets, add replicas, or retry")
		return 3
	case anyOut && len(modelNames) == 1:
		return 1
	}
	return 0
}

// printReport renders one pair's merged outcomes in the ccmc verdict
// format (minus the SC engine-stats parenthetical, which is per-box by
// nature), and the degrade report — exact shard coverage per degraded
// model — on stderr.
func printReport(rep *fleet.Report, pair string, explain bool, stdout, stderr io.Writer) (anyOut, anyInconclusive bool) {
	// The coordinator accepted the same text, so it parses.
	named, ofn, _ := observer.ParsePairString(pair)
	for _, o := range rep.Outcomes {
		anyOut = anyOut || o.Verdict.Out()
		anyInconclusive = anyInconclusive || o.Verdict.Inconclusive()
		fmt.Fprintf(stdout, "%-6s %s\n", o.Model, o.Verdict)
		if o.ShardsDone < o.ShardsTotal {
			fmt.Fprintf(stderr, "fleetctl: degraded: %s covered %d/%d shards (%d lost to replica failures)\n",
				o.Model, o.ShardsDone, o.ShardsTotal, o.ShardsTotal-o.ShardsDone)
		}
		if !explain {
			continue
		}
		serve.WriteExplain(stdout, serve.ModelResult{Model: o.Model, Verdict: o.Verdict, Witness: o.Witness,
			LocWitnesses: o.LocWitnesses, Violation: o.Violation}, named.Comp, ofn)
		if o.Verdict.In() && !o.WitnessCanonical {
			fmt.Fprintln(stderr, "fleetctl: degraded: SC witness found above a lost shard; a lower-root witness may exist")
		}
	}
	return anyOut, anyInconclusive
}

// splitReplicas parses the -replicas list, trimming blanks.
func splitReplicas(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, strings.TrimRight(r, "/"))
		}
	}
	return out
}
