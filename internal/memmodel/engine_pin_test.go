package memmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
	"repro/internal/trace"
)

// The engine pins: testdata/engine_pins.txt holds a hash of the serial
// search.Result — Found, Exhausted, Stop, Order, WitnessRoot and every
// Stats field — for each of 2,000 seeded specs, as the engine answered
// them before its root loop became one loop for serial, sharded and
// parallel runs. The specs come in three kinds: SC last-writer specs of
// random pairs, TSO specs (gated, so they never sleep) and checker
// specs whose candidate sets come from trace values; one in ten also
// runs under a small state budget.
//
// ENGINE_PINS_RECORD=1 rewrites the file from the code under test.

const enginePinInputs = 2000

// enginePinSpec is one pinned input: a spec and the state budget its
// serial run gets (0 = unlimited).
type enginePinSpec struct {
	name   string
	spec   search.Spec
	budget int64
}

// enginePinSpecs draws the pinned inputs in order.
func enginePinSpecs() []enginePinSpec {
	rng := rand.New(rand.NewSource(26))
	out := make([]enginePinSpec, 0, enginePinInputs)
	for i := 0; len(out) < enginePinInputs; i++ {
		n := 6 + rng.Intn(9)
		g := dag.Random(rng, n, 0.2+0.15*rng.Float64())
		ops := computation.AllOps(2)
		labels := make([]computation.Op, n)
		for u := range labels {
			labels[u] = ops[rng.Intn(len(ops))]
		}
		c := computation.MustFrom(g, labels, 2)
		var o *observer.Observer
		if rng.Intn(3) == 0 {
			o = observer.FromLastWriter(c, randomSort(rng, g))
		} else {
			o = observer.FromPerLocationSorts(c, [][]dag.Node{randomSort(rng, g), randomSort(rng, g)})
		}
		var budget int64
		if rng.Intn(10) == 0 {
			budget = int64(2 + rng.Intn(30))
		}
		kind := i % 3
		name := fmt.Sprintf("#%d kind %d n=%d budget %d", len(out), kind, n, budget)
		switch kind {
		case 0:
			out = append(out, enginePinSpec{name + " SC", lastWriterSpec(c, o, make([]dag.Node, 2*n)), budget})
		case 1:
			var hb hbCore
			if !hb.build(c, c.Closure(), o) {
				continue
			}
			if s, feasible := tsoSpec(new(tsoCore), c, o); feasible {
				out = append(out, enginePinSpec{name + " TSO", s, budget})
			}
		case 2:
			out = append(out, enginePinSpec{name + " checker", checkerSpec(rng, c, o), budget})
		}
	}
	return out
}

// checkerSpec builds the post-mortem checker's SC search for the trace
// that o's execution of c produces when every write stores one of three
// values: each read's candidates are the writes of its value that do
// not follow it (⊥ for an undefined read), and only locations some read
// constrains are tracked, as internal/checker compiles it. One read in
// five returns another value that some write (or ⊥) could explain.
func checkerSpec(rng *rand.Rand, c *computation.Computation, o *observer.Observer) search.Spec {
	n := c.NumNodes()
	tr := trace.New(c)
	for u := 0; u < n; u++ {
		if c.Op(dag.Node(u)).Kind == computation.Write {
			tr.WriteVal[u] = trace.Value(1 + rng.Intn(3))
		}
	}
	cands := make([][]dag.Node, c.NumLocs()*n)
	for u := 0; u < n; u++ {
		op := c.Op(dag.Node(u))
		if op.Kind != computation.Read {
			continue
		}
		tr.ReadVal[u] = trace.Undefined
		if w := o.Get(op.Loc, dag.Node(u)); w != observer.Bottom {
			tr.ReadVal[u] = tr.WriteVal[w]
		}
		cands[int(op.Loc)*n+u] = tr.Candidates(dag.Node(u))
		if rng.Intn(5) == 0 {
			// A stale or invented value, kept only if some write
			// could have produced it.
			was := tr.ReadVal[u]
			if tr.ReadVal[u] = trace.Value(rng.Intn(4)); tr.ReadVal[u] == 0 {
				tr.ReadVal[u] = trace.Undefined
			}
			if set := tr.Candidates(dag.Node(u)); len(set) > 0 {
				cands[int(op.Loc)*n+u] = set
			} else {
				tr.ReadVal[u] = was
			}
		}
	}
	slot := make([]int, c.NumLocs())
	var tracked []computation.Loc
	for l := range slot {
		slot[l] = -1
		for u := 0; u < n; u++ {
			if cands[l*n+u] != nil {
				slot[l] = len(tracked)
				tracked = append(tracked, computation.Loc(l))
				break
			}
		}
	}
	return search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: len(tracked),
		WriteSlot: func(u dag.Node) int {
			if op := c.Op(u); op.Kind == computation.Write {
				return slot[op.Loc]
			}
			return -1
		},
		Allowed: func(s int, u dag.Node) ([]dag.Node, bool) {
			set := cands[int(tracked[s])*n+int(u)]
			return set, set != nil
		},
	}
}

// enginePin is the hash of every field of a serial result.
func enginePin(res search.Result) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%v %v %v %v %d %+v",
		res.Found, res.Exhausted, res.Stop, res.Order, res.WitnessRoot, res.Stats))
	return hex.EncodeToString(sum[:6])
}

func TestEnginePinned(t *testing.T) {
	specs := enginePinSpecs()
	got := make([]string, len(specs))
	found, budgeted := 0, 0
	for i, s := range specs {
		res := search.Run(s.spec, search.Options{Workers: 1, Budget: s.budget})
		got[i] = enginePin(res)
		if res.Found {
			found++
		}
		if res.Stop == search.StopBudget {
			budgeted++
		}
	}
	if found == 0 || found == len(specs) || budgeted == 0 {
		t.Fatalf("weak inputs: %d of %d found, %d stopped by the budget", found, len(specs), budgeted)
	}
	path := filepath.Join("testdata", "engine_pins.txt")
	if os.Getenv("ENGINE_PINS_RECORD") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	if len(want) != len(got) {
		t.Fatalf("%d pins for %d results", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("%s: serial result drifted from its pin", specs[i].name)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d results drifted", bad, len(got))
	}
}

// TestEngineWorkersAndShardsMatchSerial runs every unbudgeted pinned
// spec on 2 and 4 workers, and cut into 2 and 3 root shards merged by
// the lowest-witness-root rule: each must give the serial run's Found,
// Exhausted, Order and WitnessRoot.
func TestEngineWorkersAndShardsMatchSerial(t *testing.T) {
	multiRoot := 0
	for _, s := range enginePinSpecs() {
		if s.budget > 0 {
			continue
		}
		serial := search.Run(s.spec, search.Options{Workers: 1})
		same := func(how string, res search.Result) {
			t.Helper()
			if res.Found != serial.Found || res.Exhausted != serial.Exhausted ||
				!slices.Equal(res.Order, serial.Order) || res.WitnessRoot != serial.WitnessRoot {
				t.Fatalf("%s, %s: %+v, serial %+v", s.name, how, res, serial)
			}
		}
		for _, w := range []int{2, 4} {
			same(fmt.Sprintf("%d workers", w), search.Run(s.spec, search.Options{Workers: w}))
		}
		total, trivial := search.Frontier(s.spec)
		if trivial != nil {
			continue
		}
		if total > 1 {
			multiRoot++
		}
		for _, k := range []int{2, 3} {
			if k > total {
				continue
			}
			var shards []search.Result
			for j := 0; j < k; j++ {
				shards = append(shards, search.Run(s.spec, search.Options{Workers: 1, RootLo: j * total / k, RootHi: (j + 1) * total / k}))
			}
			same(fmt.Sprintf("%d shards of %d roots", k, total), mergeLowestRoot(shards))
		}
	}
	if multiRoot < 100 {
		t.Fatalf("only %d specs with more than one root", multiRoot)
	}
}

// mergeLowestRoot merges shard results as the fleet does: the lowest
// witness root wins; without a witness the run is exhausted only if
// every shard is.
func mergeLowestRoot(shards []search.Result) search.Result {
	merged := search.Result{Exhausted: true, WitnessRoot: -1}
	for _, r := range shards {
		switch {
		case r.Found && (!merged.Found || r.WitnessRoot < merged.WitnessRoot):
			merged = r
		case !merged.Found && !r.Exhausted:
			merged.Exhausted = false
		}
	}
	return merged
}
