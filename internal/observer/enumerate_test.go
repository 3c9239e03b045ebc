package observer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/computation"
	"repro/internal/dag"
)

func TestCandidatesChain(t *testing.T) {
	c := chainWRW() // 0:W -> 1:R -> 2:W
	cands := Candidates(c)
	// Node 0 and 2 are writes: singleton {self}.
	if len(cands[0][0]) != 1 || cands[0][0][0] != 0 {
		t.Fatalf("cands[0][0] = %v", cands[0][0])
	}
	if len(cands[0][2]) != 1 || cands[0][2][0] != 2 {
		t.Fatalf("cands[0][2] = %v", cands[0][2])
	}
	// Node 1 (read) may observe ⊥ or write 0; write 2 follows it.
	if len(cands[0][1]) != 2 || cands[0][1][0] != Bottom || cands[0][1][1] != 0 {
		t.Fatalf("cands[0][1] = %v", cands[0][1])
	}
}

func TestEnumerateChain(t *testing.T) {
	c := chainWRW()
	seen := map[string]bool{}
	n := Enumerate(c, func(o *Observer) bool {
		if err := o.Validate(c); err != nil {
			t.Fatalf("enumerated invalid observer: %v", err)
		}
		k := o.Key()
		if seen[k] {
			t.Fatalf("duplicate observer %s", o)
		}
		seen[k] = true
		return true
	})
	if n != 2 {
		t.Fatalf("observer count = %d, want 2", n)
	}
	if got := Count(c, 0); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestEnumerateEmptyComputation(t *testing.T) {
	c := computation.New(1)
	n := Enumerate(c, func(o *Observer) bool { return true })
	if n != 1 {
		t.Fatalf("empty computation must have exactly one observer, got %d", n)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	c := computation.New(1)
	for i := 0; i < 3; i++ {
		c.AddNode(computation.R(0))
	}
	c.AddNode(computation.W(0))
	// Parallel reads with one incomparable write: each read has 2
	// candidates -> 8 observers.
	visited := 0
	got := Enumerate(c, func(*Observer) bool {
		visited++
		return visited < 3
	})
	if got != 3 {
		t.Fatalf("visited = %d, want 3", got)
	}
}

func TestCountLimit(t *testing.T) {
	c := computation.New(1)
	for i := 0; i < 10; i++ {
		c.AddNode(computation.R(0))
	}
	c.AddNode(computation.W(0))
	// 2^10 = 1024 observers; limit saturates.
	if got := Count(c, 100); got != 100 {
		t.Fatalf("limited count = %d, want 100", got)
	}
	if got := Count(c, 0); got != 1024 {
		t.Fatalf("full count = %d, want 1024", got)
	}
}

// Property: Enumerate visits exactly Count observers, all valid and
// pairwise distinct, and every enumerated observer extends New(c) only
// when it actually equals the canonical minimal one.
func TestQuickEnumerateMatchesCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 2)
		if Count(c, 2000) >= 2000 {
			return true // skip explosive instances
		}
		seen := map[string]bool{}
		valid := true
		n := Enumerate(c, func(o *Observer) bool {
			if err := o.Validate(c); err != nil {
				valid = false
				return false
			}
			k := o.Key()
			if seen[k] {
				valid = false
				return false
			}
			seen[k] = true
			return true
		})
		return valid && n == Count(c, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rank inverts Enumerate — every visited observer ranks at its
// visit index — and rejects assignments that are not observer functions.
func TestQuickRankMatchesEnumerate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 2)
		if Count(c, 2000) >= 2000 {
			return true
		}
		ok := true
		visited := Enumerate(c, func(o *Observer) bool {
			r, valid := Rank(c, o)
			ok = valid && r == visitedSoFar(c, o)
			return ok
		})
		if !ok || visited == 0 {
			return false
		}
		// Condition 2.3: a write observing ⊥ is not an observer function.
		for u := 0; u < c.NumNodes(); u++ {
			if op := c.Op(dag.Node(u)); op.Kind == computation.Write {
				o := New(c)
				o.Set(op.Loc, dag.Node(u), Bottom)
				if _, valid := Rank(c, o); valid {
					return false
				}
				break
			}
		}
		_, valid := Rank(computation.New(c.NumLocs()+1), New(c))
		return !valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// visitedSoFar is the brute-force rank: the number of observers
// Enumerate visits before o.
func visitedSoFar(c *computation.Computation, o *Observer) int {
	rank := 0
	Enumerate(c, func(p *Observer) bool {
		if p.Equal(o) {
			return false
		}
		rank++
		return true
	})
	return rank
}

func TestRankChain(t *testing.T) {
	c := chainWRW() // 0:W -> 1:R -> 2:W; node 1 may observe ⊥ or 0
	o := New(c)
	if r, ok := Rank(c, o); !ok || r != 0 {
		t.Fatalf("Rank(⊥) = %d, %v; want 0, true", r, ok)
	}
	o.Set(0, 1, 0)
	if r, ok := Rank(c, o); !ok || r != 1 {
		t.Fatalf("Rank(0) = %d, %v; want 1, true", r, ok)
	}
	o.Set(0, 1, 2) // condition 2.2: node 1 precedes write 2
	if _, ok := Rank(c, o); ok {
		t.Fatal("Rank accepted an observer of the future")
	}
}

// Property: every last-writer observer appears in the enumeration
// (W_T is an observer function, Theorem 16, and enumeration is complete).
func TestQuickLastWriterEnumerated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 1)
		if Count(c, 3000) >= 3000 {
			return true
		}
		order, err := c.Dag().TopoSort()
		if err != nil {
			return false
		}
		want := FromLastWriter(c, order)
		found := false
		Enumerate(c, func(o *Observer) bool {
			if o.Equal(want) {
				found = true
				return false
			}
			return true
		})
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnumerateObservers(b *testing.B) {
	c := computation.New(1)
	var nodes []dag.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, c.AddNode(computation.W(0)))
	}
	for i := 0; i < 3; i++ {
		nodes = append(nodes, c.AddNode(computation.R(0)))
	}
	_ = nodes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enumerate(c, func(*Observer) bool { return true })
	}
}
