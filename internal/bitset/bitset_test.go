package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", s.Cap())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("set missing %d after Add", i)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("set contains 64 after Remove")
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Add(10) },
		func() { New(10).Add(-1) },
		func() { New(10).Contains(11) },
		func() { New(10).Remove(10) },
		func() { New(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSetOps(t *testing.T) {
	a := New(70)
	b := New(70)
	for _, i := range []int{1, 2, 3, 65} {
		a.Add(i)
	}
	for _, i := range []int{3, 4, 65, 66} {
		b.Add(i)
	}

	u := a.Clone()
	u.UnionWith(b)
	want := []int{1, 2, 3, 4, 65, 66}
	got := u.Elements()
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}

	x := a.Clone()
	x.IntersectWith(b)
	if x.String() != "{3, 65}" {
		t.Fatalf("intersection = %s, want {3, 65}", x)
	}
}

func TestEqualDifferentCap(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("sets of different capacity compare equal")
	}
}

func TestMismatchedCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 7 {
		s.Add(i)
	}
	count := 0
	s.ForEach(func(i int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d elements, want 3", count)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(10)
	a.Add(5)
	b := a.Clone()
	b.Add(6)
	if a.Contains(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !b.Contains(5) {
		t.Fatal("Clone lost element")
	}
}

func TestStringEmpty(t *testing.T) {
	if got := New(5).String(); got != "{}" {
		t.Fatalf("String = %q, want {}", got)
	}
}

// Property: a set behaves like a map[int]bool under a random op sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 150
		s := New(n)
		m := make(map[int]bool)
		for step := 0; step < 500; step++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(i)
				m[i] = true
			case 1:
				s.Remove(i)
				delete(m, i)
			case 2:
				if s.Contains(i) != m[i] {
					return false
				}
			}
		}
		if s.Len() != len(m) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Contains(i) != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity |A∪B| + |A∩B| == |A| + |B|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 90
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		u := a.Clone()
		u.UnionWith(b)
		x := a.Clone()
		x.IntersectWith(b)
		return u.Len()+x.Len() == a.Len()+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionWith(b *testing.B) {
	a := New(4096)
	c := New(4096)
	for i := 0; i < 4096; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 4096; i += 5 {
		c.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UnionWith(c)
	}
}
