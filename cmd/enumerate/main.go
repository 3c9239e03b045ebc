// Command enumerate prints statistics about the exhaustive universes
// the experiments quantify over: how many computations and observer
// functions exist up to a size bound, and how the pair counts split
// across the memory models.
//
// Usage:
//
//	enumerate [-n MAXNODES] [-locs L] [-persize] [-workers W]
//
// Both tables enumerate canonical representatives only and weight each
// count by its orbit (isomorphism-class) size, so every printed number
// covers the whole universe while far fewer computations are
// materialized. -workers sets how many goroutines the census runs on;
// -persize is serial.
//
// -n, -locs and -workers must be non-negative (-workers 0, the default,
// means GOMAXPROCS). Exit codes: 0 on success, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/observer"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("enumerate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxNodes := fs.Int("n", 4, "maximum computation size (nodes)")
	locs := fs.Int("locs", 1, "number of memory locations")
	perSize := fs.Bool("persize", false, "break counts down by computation size")
	workers := fs.Int("workers", 0, "parallel sweep workers for the census (0 = GOMAXPROCS)")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "enumerate: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *maxNodes < 0 || *locs < 0 || *workers < 0 {
		fmt.Fprintln(stderr, "enumerate: -n, -locs and -workers must be non-negative")
		return 2
	}
	return obsFlags.Run("enumerate", args, stderr, func(rec obs.Recorder) int {
		return runCounts(*maxNodes, *locs, *perSize, *workers, rec, stdout)
	})
}

func runCounts(maxNodes, locs int, perSize bool, workers int, rec obs.Recorder, stdout io.Writer) int {
	if perSize {
		r := obs.WithRun(rec, "persize")
		var live *obs.Counters
		if rec != nil {
			live = &obs.Counters{}
			obs.Emit(r, obs.Event{Kind: obs.RunStart, Total: maxNodes + 1, Live: live})
		}
		fmt.Fprintf(stdout, "%-6s %-14s %-14s %-12s\n", "size", "computations", "pairs", "max Φ/comp")
		for n := 0; n <= maxNodes; n++ {
			comps, pairs, maxObs := 0, 0, 0
			// Observer counts are isomorphism-invariant, so maxObs needs
			// no weighting.
			enum.EachComputationReduced(n, locs, func(c *computation.Computation, orbit int64) bool {
				comps += int(orbit)
				k := observer.Count(c, 0)
				pairs += k * int(orbit)
				if k > maxObs {
					maxObs = k
				}
				if live != nil {
					live.States.Add(1)
				}
				return true
			})
			fmt.Fprintf(stdout, "%-6d %-14d %-14d %-12d\n", n, comps, pairs, maxObs)
			if live != nil {
				live.Done.Add(1)
			}
		}
		obs.Emit(r, obs.Event{Kind: obs.RunEnd, Str: "OK"})
		return 0
	}
	// Only a cancelled context stops the sweep early, and this one
	// never is.
	table, _ := expt.MembershipCensus(context.Background(), maxNodes, locs, workers, rec)
	fmt.Fprint(stdout, table)
	return 0
}
