// Command lattice regenerates Figure 1 of the paper — enlarged by the
// hardware/language models: it machine-checks every claimed relation
// among SC, LC, NN, NW, WN, WW, TSO, RA and CAUSAL over the exhaustive
// universe of small computations, re-decides the committed strictness
// witnesses under testdata/litmus (the separations whose smallest
// members exceed the sweep bound live only there), and runs the
// constructible-version fixpoint experiments of Section 6.
//
// Usage:
//
//	lattice [-n MAXNODES] [-locs L] [-reduce] [-census] [-witnesses DIR] [-star NN|WN|NW] [-props MODEL] [-findtrap MODEL]
//
// Examples:
//
//	lattice -n 4              # full Figure 1 check (default)
//	lattice -n 5 -reduce      # same check, canonical representatives only
//	lattice -n 4 -star NN     # Theorem 23: NN* = LC on the interior
//	lattice -n 4 -star WN     # Section 7 open problem probe
//	lattice -n 3 -props NN    # completeness/monotonicity/constructibility
//
// -reduce decides one representative per isomorphism class and weights
// it by its orbit size: counts, verdicts, and witnesses are identical
// to the unreduced sweep, but sizes like -n 5 become tractable. It
// applies to the default check, -census, and -props. -star always
// counts its boundary (the -n-node computations) that way but prunes
// every smaller computation, so it takes no -reduce; -findtrap
// mutates computations and has no reduced form.
//
// -n and -locs must be non-negative, and -star needs -n ≥ 1.
//
// -workers shards the sweep for the default lattice check and -census.
// The -star/-props/-findtrap experiments run the serial fixpoint code;
// setting -workers alongside them is a usage error rather than a
// silent no-op.
//
// Exit codes follow the suite convention: 0 when every checked claim
// holds, 1 when a check fails (a Figure 1 edge mismatches, a star
// fixpoint diverges from its target, a property is violated, or
// -findtrap finds a non-constructibility witness), 2 on usage errors.
// The sweeps are exhaustive, so there is no inconclusive (3) outcome.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/expt"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lattice", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxNodes := fs.Int("n", 4, "maximum computation size (nodes)")
	locs := fs.Int("locs", 1, "number of memory locations")
	census := fs.Bool("census", false, "print per-model membership counts")
	star := fs.String("star", "", "run the constructible-version fixpoint for this base model")
	props := fs.String("props", "", "check completeness/monotonicity/constructibility for this model")
	findtrap := fs.String("findtrap", "", "search for the smallest non-constructibility witness of this model")
	workers := fs.Int("workers", 0, "parallel sweep workers for the lattice check and -census (0 = GOMAXPROCS)")
	witnesses := fs.String("witnesses", "testdata/litmus", "directory of committed strictness-witness fixtures re-checked by the lattice check (empty = skip)")
	reduce := fs.Bool("reduce", false, "sweep canonical representatives only (orbit-weighted); identical output, one isomorphism-class member decided per class")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "lattice: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *maxNodes < 0 || *locs < 0 {
		fmt.Fprintln(stderr, "lattice: -n and -locs must be non-negative")
		return 2
	}
	// The star fixpoint compares its interior, the computations below
	// -n nodes, with LC; -n 0 has none.
	if *star != "" && *maxNodes < 1 {
		fmt.Fprintln(stderr, "lattice: -star needs -n ≥ 1")
		return 2
	}
	// The serial experiments cannot honor -workers; reject it loudly
	// instead of ignoring it (the historical behavior).
	if *star != "" || *props != "" || *findtrap != "" {
		workersSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				workersSet = true
			}
		})
		if workersSet {
			fmt.Fprintln(stderr, "lattice: -workers applies only to the default lattice check and -census")
			return 2
		}
	}
	// The star fixpoint prunes every interior computation against its
	// augmentations and already reduces its boundary; the trap search
	// mutates computations as it iterates. Only the pure membership
	// sweeps have reduced counterparts.
	if *reduce && (*star != "" || *findtrap != "") {
		fmt.Fprintln(stderr, "lattice: -reduce applies only to the default lattice check, -census, and -props")
		return 2
	}

	sess, err := obsFlags.Start("lattice", args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "lattice:", err)
		return 2
	}
	code := runChecked(*maxNodes, *locs, *census, *star, *props, *findtrap, *workers, *reduce, *witnesses, sess.Rec, stdout, stderr)
	if err := sess.Close(code); err != nil {
		fmt.Fprintln(stderr, "lattice:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// runChecked dispatches to the selected experiment and maps its report
// onto the exit-code convention. rec observes the run: the default
// lattice check streams per-edge phases and sweep gauges; the other
// branches bracket their (serial) experiment in a RunStart/RunEnd pair.
func runChecked(maxNodes, locs int, census bool, star, props, findtrap string, workers int, reduce bool, witnesses string, rec obs.Recorder, stdout, stderr io.Writer) int {
	// bracket wraps a serial experiment so -report/-trace sessions see
	// one run per invocation even off the parallel sweep path; fn
	// records its phases, if any, under the run.
	bracket := func(name string, fn func(r obs.Recorder) (string, bool)) int {
		r := obs.WithRun(rec, name)
		obs.Emit(r, obs.Event{Kind: obs.RunStart, Total: 1})
		out, ok := fn(r)
		verdict := "OK"
		code := 0
		if !ok {
			verdict, code = "FAILED", 1
		}
		obs.Emit(r, obs.Event{Kind: obs.RunEnd, Str: verdict})
		fmt.Fprint(stdout, out)
		return code
	}

	switch {
	case findtrap != "":
		m, err := memmodel.Lookup(findtrap)
		if err != nil {
			fmt.Fprintln(stderr, "lattice:", err)
			return 2
		}
		return bracket("findtrap "+m.Name(), func(obs.Recorder) (string, bool) {
			trap, found := expt.FindTrap(m, maxNodes, locs)
			if !found {
				return fmt.Sprintf("%s has no non-constructibility witness up to %d nodes, %d location(s)\n",
					m.Name(), maxNodes, locs), true
			}
			return fmt.Sprintf("smallest %s trap (the Section 3 adversary wins here):\n  %v\n  %v\n  stuck on augmentation by %s\n",
				m.Name(), trap.Pair.C, trap.Pair.O, trap.Op), false
		})
	case star != "":
		m, err := memmodel.Lookup(star)
		if err != nil {
			fmt.Fprintln(stderr, "lattice:", err)
			return 2
		}
		return bracket("star "+m.Name(), func(r obs.Recorder) (string, bool) {
			rep := expt.RunStar(m, maxNodes, locs, r)
			return rep.String(), rep.OK()
		})
	case props != "":
		m, err := memmodel.Lookup(props)
		if err != nil {
			fmt.Fprintln(stderr, "lattice:", err)
			return 2
		}
		return bracket("props "+m.Name(), func(obs.Recorder) (string, bool) {
			var rep expt.PropertyReport
			if reduce {
				rep = expt.RunPropertiesReduced(m, maxNodes, locs)
			} else {
				rep = expt.RunProperties(m, maxNodes, locs)
			}
			return rep.String(), rep.OK()
		})
	case census:
		return bracket("census", func(obs.Recorder) (string, bool) {
			if reduce {
				return expt.MembershipCensusReducedParallel(maxNodes, locs, workers), true
			}
			return expt.MembershipCensusParallel(maxNodes, locs, workers), true
		})
	case reduce:
		rep := expt.RunLatticeReduced(maxNodes, locs, workers, rec)
		fmt.Fprint(stdout, rep)
		code := 0
		if !rep.AllOK() {
			code = 1
		}
		return checkWitnesses(witnesses, code, stdout, stderr)
	default:
		rep := expt.RunLatticeObs(maxNodes, locs, workers, rec)
		fmt.Fprint(stdout, rep)
		code := 0
		if !rep.AllOK() {
			code = 1
		}
		return checkWitnesses(witnesses, code, stdout, stderr)
	}
}

// checkWitnesses re-decides the committed strictness witnesses after a
// lattice sweep: the sweep proves the inclusions exhaustively up to
// -n, the fixtures carry the separations — including the ones whose
// smallest members exceed the sweep bound. code is the sweep's exit
// code; the combined run fails (1) if either half fails, and an
// unreadable fixture directory is a usage/environment error (2).
func checkWitnesses(dir string, code int, stdout, stderr io.Writer) int {
	if dir == "" {
		return code
	}
	rep, err := expt.CheckWitnesses(dir)
	if err != nil {
		fmt.Fprintln(stderr, "lattice:", err)
		return 2
	}
	fmt.Fprint(stdout, rep)
	if !rep.AllOK() && code == 0 {
		code = 1
	}
	return code
}
