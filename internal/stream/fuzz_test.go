package stream

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checker"
	"repro/internal/search"
	"repro/internal/trace"
)

// FuzzStreamDifferential feeds random delivery orderings of
// fuzzer-mutated traces through the incremental checker and the
// post-mortem checker and requires: identical final verdict text for
// both models, and soundness of every mid-stream violation (the
// post-mortem verdict for a flagged model is VIOLATED — a violation is
// never reported later than end-of-trace by construction, and never
// wrongly before it by this check). Seeds are the whole trace corpus;
// CI runs this as a fuzz smoke (see ci.yml).
func FuzzStreamDifferential(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.trace"))
	for _, p := range seeds {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b, int64(1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		nt, err := trace.ParseTraceString(string(data))
		if err != nil {
			t.Skip()
		}
		if nt.Named.Comp.NumNodes() > 24 {
			t.Skip() // keep the post-mortem oracle cheap
		}
		ctx := context.Background()
		lcWant := checker.VerifyLC(ctx, nt.Trace, checker.SearchOptions{}).Verdict
		scWant := checker.VerifySC(ctx, nt.Trace, checker.SearchOptions{}).Verdict

		rng := rand.New(rand.NewSource(seed))
		order := randTopo(nt.Named.Comp.Dag(), rng)
		events, err := EventsFromTraceOrder(nt, order)
		if err != nil {
			t.Fatalf("corpus trace did not convert: %v", err)
		}
		c := New(Options{CheckEvery: 1})
		var online []Violation
		for _, ev := range events {
			v, err := c.Ingest(ev)
			if err != nil {
				t.Fatalf("ingest of converted event failed: %v", err)
			}
			if v != nil {
				online = append(online, *v)
			}
		}
		fin := c.Finish(ctx, checker.SearchOptions{}, search.StopNone)
		if got, want := checker.VerdictText(fin.LC.Verdict), checker.VerdictText(lcWant); got != want {
			t.Fatalf("LC: stream %q, post-mortem %q", got, want)
		}
		if got, want := checker.VerdictText(fin.SC.Verdict), checker.VerdictText(scWant); got != want {
			t.Fatalf("SC: stream %q, post-mortem %q", got, want)
		}
		for _, v := range online {
			for _, m := range v.Models {
				if m == "LC" && !lcWant.Out() {
					t.Fatalf("unsound online LC violation %+v (post-mortem %s)", v, lcWant)
				}
				if m == "SC" && !scWant.Out() {
					t.Fatalf("unsound online SC violation %+v (post-mortem %s)", v, scWant)
				}
			}
		}
	})
}
