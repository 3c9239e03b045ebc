package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/observer"
)

// This file machine-checks the strictness side of the enlarged
// lattice. The exhaustive sweeps prove inclusions up to a size bound;
// the claims whose separating pairs are LARGER than the default bound
// (TSO ∖ CAUSAL and RA ∖ CAUSAL first appear at 5 nodes and two
// locations, which only the `lattice -n 5 -locs 2` golden sweeps)
// would otherwise rest on comments. Each WitnessClaim pins one direction of
// one edge to a fixture committed under testdata/litmus: the pair must
// be IN one model and OUT of the other, re-decided from the fixture
// bytes on every lattice run — so a decision-procedure regression, a
// stale fixture, or an edit to the claimed lattice all fail loudly.

// WitnessClaim is one committed separation: the pair in File is
// claimed to be a member of model In and a non-member of model Out,
// witnessing Edge (either the strict half of "⊊" or one direction of
// an incomparability).
type WitnessClaim struct {
	File    string // fixture basename, e.g. "sb.ccm"
	In, Out string // model names
	Edge    string // the lattice claim this witnesses, for the report
}

// WitnessClaims returns the committed witnesses for every extended
// edge: one claim per "⊊" (the inclusion half is swept exhaustively),
// two per incomparability. File witnesses are the classic litmus
// shapes where one exists (SB separates SC from TSO, IRIW separates
// SC and TSO from RA) and machine-extracted minimal pairs elsewhere.
func WitnessClaims() []WitnessClaim {
	return []WitnessClaim{
		{File: "sb.ccm", In: "TSO", Out: "SC", Edge: "SC ⊊ TSO"},
		{File: "iriw.ccm", In: "RA", Out: "SC", Edge: "SC ⊊ RA"},
		{File: "coww.ccm", In: "CAUSAL", Out: "SC", Edge: "SC ⊊ CAUSAL"},
		{File: "lb.ccm", In: "LC", Out: "RA", Edge: "RA ⊊ LC"},
		{File: "tso_not_ra.ccm", In: "TSO", Out: "RA", Edge: "TSO ∖ RA ≠ ∅"},
		{File: "iriw.ccm", In: "RA", Out: "TSO", Edge: "RA ∖ TSO ≠ ∅"},
		{File: "tso_not_causal.ccm", In: "TSO", Out: "CAUSAL", Edge: "TSO ∖ CAUSAL ≠ ∅ (n=5, locs=2)"},
		{File: "coww.ccm", In: "CAUSAL", Out: "TSO", Edge: "CAUSAL ∖ TSO ≠ ∅"},
		{File: "tso_not_lc.ccm", In: "TSO", Out: "LC", Edge: "TSO ∖ LC ≠ ∅"},
		{File: "lb.ccm", In: "LC", Out: "TSO", Edge: "LC ∖ TSO ≠ ∅"},
		{File: "ra_not_causal.ccm", In: "RA", Out: "CAUSAL", Edge: "RA ∖ CAUSAL ≠ ∅ (n=5, locs=2)"},
		{File: "coww.ccm", In: "CAUSAL", Out: "RA", Edge: "CAUSAL ∖ RA ≠ ∅"},
		{File: "tso_not_lc.ccm", In: "CAUSAL", Out: "LC", Edge: "CAUSAL ∖ LC ≠ ∅"},
		{File: "mp.ccm", In: "LC", Out: "CAUSAL", Edge: "LC ∖ CAUSAL ≠ ∅"},
	}
}

// WitnessResult is the verdict for one claim.
type WitnessResult struct {
	Claim WitnessClaim
	OK    bool
	// Detail explains a failure: which membership disagreed, or why
	// the fixture could not be decided at all.
	Detail string
}

// WitnessReport collects the witness checks of one lattice run.
type WitnessReport struct {
	Dir     string
	Results []WitnessResult
}

// AllOK reports whether every committed witness still witnesses its
// claim.
func (r WitnessReport) AllOK() bool {
	for _, res := range r.Results {
		if !res.OK {
			return false
		}
	}
	return true
}

// String renders the witness table in the lattice-report style.
func (r WitnessReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strictness witnesses (%s)\n", r.Dir)
	for _, res := range r.Results {
		verdict := "OK"
		if !res.OK {
			verdict = "MISMATCH: " + res.Detail
		}
		fmt.Fprintf(&b, "%-30s %-20s ∈ %-6s ∉ %-6s  %s\n",
			res.Claim.Edge, res.Claim.File, res.Claim.In, res.Claim.Out, verdict)
	}
	return b.String()
}

// CheckWitnesses re-decides every committed witness claim against the
// fixtures in dir. An unreadable or unparsable fixture is an error
// (the caller's environment is broken); a fixture that parses but no
// longer separates its models is a failing result (the lattice claim
// is broken).
func CheckWitnesses(dir string) (WitnessReport, error) {
	rep := WitnessReport{Dir: dir}
	for _, claim := range WitnessClaims() {
		in, err := memmodel.Lookup(claim.In)
		if err != nil {
			return rep, fmt.Errorf("expt: witness %s: %w", claim.File, err)
		}
		out, err := memmodel.Lookup(claim.Out)
		if err != nil {
			return rep, fmt.Errorf("expt: witness %s: %w", claim.File, err)
		}
		f, err := os.Open(filepath.Join(dir, claim.File))
		if err != nil {
			return rep, fmt.Errorf("expt: witness fixture: %w", err)
		}
		named, o, err := observer.ParsePair(f)
		f.Close()
		if err != nil {
			return rep, fmt.Errorf("expt: witness fixture %s: %w", claim.File, err)
		}
		res := WitnessResult{Claim: claim, OK: true}
		if !in.Contains(named.Comp, o) {
			res.OK = false
			res.Detail = fmt.Sprintf("pair ∉ %s", claim.In)
		} else if out.Contains(named.Comp, o) {
			res.OK = false
			res.Detail = fmt.Sprintf("pair ∈ %s", claim.Out)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}
