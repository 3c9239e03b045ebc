package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// The response pins: testdata/check_pins.txt holds a hash of the
// POST /v1/check body for each of 2,100 seeded pairs, and then of the
// POST /v1/batch body (one item per model) for the first 300, as the
// daemon answered them before the one-pass codec and the per-pair
// decision context. Then, for the same 300, it holds the batch bodies
// whose SC item is the frontier shard [0, 1) and then [1, 0) (the
// second root through the end), recorded before a batch's SC item
// decided on the pair's decision context. The pairs are the miss traffic's shape: 12–24
// nodes over locations x and y, in three families (a last-writer
// observer, one stale read, observer entries perturbed). Every request
// runs its searches on one worker, because a parallel search's counters
// depend on the schedule.
//
// CHECK_PINS_RECORD=1 rewrites the file from the code under test.

const (
	pinPairs      = 2100
	pinBatchPairs = 300
)

// pinPair draws the pair text of family fam (0 last-writer, 1 stale,
// 2 perturbed) from rng.
func pinPair(rng *rand.Rand, fam int) string {
	for {
		n := 12 + rng.Intn(13)
		g := dag.Random(rng, n, 0.25)
		all := computation.AllOps(2)
		ops := make([]computation.Op, n)
		for u := range ops {
			ops[u] = all[rng.Intn(len(all))]
		}
		c := computation.MustFrom(g, ops, 2)
		order := rng.Perm(n)
		// Kahn's algorithm with a seeded choice among the ready nodes.
		indeg := make([]int, n)
		for u := range indeg {
			indeg[u] = g.InDegree(dag.Node(u))
		}
		sorted := make([]dag.Node, 0, n)
		for len(sorted) < n {
			for _, u := range order {
				if indeg[u] == 0 {
					indeg[u] = -1
					sorted = append(sorted, dag.Node(u))
					for _, v := range g.Succs(dag.Node(u)) {
						indeg[v]--
					}
					break
				}
			}
		}
		o := observer.FromLastWriter(c, sorted)
		cl := c.Closure()
		switch fam {
		case 1:
			// A read w of l observes u although u ≺ v ≺ w and v writes l.
			type site struct {
				l       computation.Loc
				u, v, w dag.Node
			}
			var sites []site
			for l := computation.Loc(0); l < 2; l++ {
				ws := c.Writers(l)
				for _, w := range c.Readers(l) {
					for _, v := range ws {
						for _, u := range ws {
							if cl.Precedes(v, w) && cl.Precedes(u, v) {
								sites = append(sites, site{l, u, v, w})
							}
						}
					}
				}
			}
			if len(sites) == 0 {
				continue
			}
			s := sites[rng.Intn(len(sites))]
			o.Set(s.l, s.w, s.u)
		case 2:
			for l := computation.Loc(0); l < 2; l++ {
				for u := dag.Node(0); int(u) < n; u++ {
					if c.Op(u).IsWriteTo(l) || rng.Float64() >= 0.15 {
						continue
					}
					others := []dag.Node{observer.Bottom}
					for _, w := range c.Writers(l) {
						if !cl.Precedes(u, w) {
							others = append(others, w)
						}
					}
					o.Set(l, u, others[rng.Intn(len(others))])
				}
			}
		}
		return pinPairText(c, o)
	}
}

// pinPairText writes (c, o) in the pair format by hand, every observer
// entry that is not a default included, so the pins do not depend on
// the formatter they help check.
func pinPairText(c *computation.Computation, o *observer.Observer) string {
	var b strings.Builder
	b.WriteString("locs x y\n")
	for u := 0; u < c.NumNodes(); u++ {
		op := c.Op(dag.Node(u))
		s := "N"
		if op.Kind != computation.Noop {
			s = fmt.Sprintf("%s(%s)", op.Kind, []string{"x", "y"}[op.Loc])
		}
		fmt.Fprintf(&b, "node n%d %s\n", u, s)
	}
	for _, e := range c.Dag().Edges() {
		fmt.Fprintf(&b, "edge n%d n%d\n", e[0], e[1])
	}
	for l := computation.Loc(0); l < 2; l++ {
		for u := dag.Node(0); int(u) < c.NumNodes(); u++ {
			w := o.Get(l, u)
			if w == u || (w == observer.Bottom && !c.Op(u).IsWriteTo(l)) {
				continue
			}
			target := "bottom"
			if w != observer.Bottom {
				target = fmt.Sprintf("n%d", w)
			}
			fmt.Fprintf(&b, "observe n%d %s %s\n", u, []string{"x", "y"}[l], target)
		}
	}
	return b.String()
}

func TestResponsesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("3,000 requests")
	}
	h := New(Config{}).Handler()
	post := func(path string, req any) string {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.Bytes())
		}
		sum := sha256.Sum256(w.Body.Bytes())
		return hex.EncodeToString(sum[:6])
	}
	rng := rand.New(rand.NewSource(2023))
	var got []string
	pairs := make([]string, pinPairs)
	for i := range pairs {
		pairs[i] = pinPair(rng, i%3)
		got = append(got, post("/v1/check", CheckRequest{Pair: pairs[i], Options: Options{Workers: 1}}))
	}
	batch := func(pair string, lo, hi int) string {
		var req BatchRequest
		for _, m := range memmodel.ModelNames() {
			it := BatchItem{ID: m, Pair: pair, Model: m}
			if m == "SC" {
				it.RootLo, it.RootHi = lo, hi
			}
			req.Items = append(req.Items, it)
		}
		req.Options = Options{Workers: 1}
		return post("/v1/batch", req)
	}
	for _, pair := range pairs[:pinBatchPairs] {
		got = append(got, batch(pair, 0, 0))
	}
	for _, shard := range [][2]int{{0, 1}, {1, 0}} {
		for _, pair := range pairs[:pinBatchPairs] {
			got = append(got, batch(pair, shard[0], shard[1]))
		}
	}
	path := filepath.Join("testdata", "check_pins.txt")
	if os.Getenv("CHECK_PINS_RECORD") == "1" {
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
		t.Fatalf("%d pins for %d bodies", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			p := i
			if p >= pinPairs {
				p = (p - pinPairs) % pinBatchPairs
			}
			if bad++; bad <= 5 {
				t.Errorf("body %d drifted from its pin (pair %d):\n%s", i, p, pairs[p])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d bodies drifted", bad, len(got))
	}
}
