package expt

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// Section-2/3 properties of the hardware/language models, pinned at
// the sizes the exploration sweeps established them. Two findings are
// worth the pin on their own:
//
//   - TSO is NOT monotonic (Definition 5): store forwarding lets a
//     node read a program-order-earlier write out of its own buffer,
//     so ADDING precedence can admit observations that are impossible
//     without it — relaxing the computation then breaks membership.
//     The smallest witnesses have 4 nodes; at ≤3 nodes TSO is
//     monotonic, which is why the aug-criterion sweep alone would
//     mislead (Theorem 12 assumes monotonicity).
//   - Despite that, TSO passes the Theorem-10 FULL constructibility
//     criterion everywhere at ≤3 nodes, and RA/CAUSAL are monotonic
//     and pass the Theorem-12 criterion — none of the three has an
//     NN-style trap in the swept universe.

// TestNewModelProperties: completeness, monotonicity and the
// augmentation criterion over the exhaustive ≤3-node, 2-location
// universe — all three hold for all three models there.
func TestNewModelProperties(t *testing.T) {
	for _, m := range []memmodel.Model{memmodel.TSO, memmodel.RA, memmodel.CAUSAL} {
		rep := RunProperties(m, 3, 2)
		if !rep.OK() {
			t.Errorf("%s: properties fail at n≤3 locs=2: %+v", m.Name(), rep)
		}
	}
}

// TestNewModelNoTraps: the Theorem-12 adversary finds no
// non-constructibility trap for any of the new models at ≤3 nodes,
// 2 locations (NN's Figure-4 trap shows up at 4 nodes in the same
// sweep, so the probe itself is known-sharp).
func TestNewModelNoTraps(t *testing.T) {
	for _, m := range []memmodel.Model{memmodel.TSO, memmodel.RA, memmodel.CAUSAL} {
		if trap, found := FindTrap(m, 3, 2); found {
			t.Errorf("%s: unexpected trap %v / %v on %s", m.Name(), trap.Pair.C, trap.Pair.O, trap.Op)
		}
	}
	if _, found := FindTrap(memmodel.NN, 4, 1); !found {
		t.Error("probe lost its sharpness: NN's Figure-4 trap not found at n=4")
	}
}

const tsoMonotonicityWitness = `locs x y
node W W(x)
node R R(x)
node F N
node Wy W(y)
edge W R
observe R x W
observe F y Wy
`

const tsoMonotonicityRelaxed = `locs x y
node W W(x)
node R R(x)
node F N
node Wy W(y)
observe R x W
observe F y Wy
`

// TestTSONonMonotonic pins the 4-node store-forwarding witness: with
// W ≺ R the read can forward x=W from its own buffer while F's ⊥ view
// of x forces W's commit after F — consistent. Relaxing away W ≺ R
// makes the same observation a memory read (W commits before R), and
// the ⊥/fence constraints close a cycle: the relaxation leaves TSO.
func TestTSONonMonotonic(t *testing.T) {
	named, o, err := observer.ParsePairString(tsoMonotonicityWitness)
	if err != nil {
		t.Fatal(err)
	}
	if !memmodel.TSO.Contains(named.Comp, o) {
		t.Fatal("witness pair not in TSO")
	}
	if memmodel.MonotonicAt(memmodel.TSO, named.Comp, o) {
		t.Error("TSO monotonic at the forwarding witness; expected a failing relaxation")
	}
	relaxed, o2, err := observer.ParsePairString(tsoMonotonicityRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	if memmodel.TSO.Contains(relaxed.Comp, o2) {
		t.Error("edgeless relaxation still in TSO; forwarding witness lost")
	}
	// RA and CAUSAL stay monotonic at this pair (their hb-based
	// formulations only lose constraints under relaxation).
	for _, m := range []memmodel.Model{memmodel.RA, memmodel.CAUSAL} {
		if !memmodel.MonotonicAt(m, named.Comp, o) {
			t.Errorf("%s non-monotonic at the TSO witness pair", m.Name())
		}
	}
}

// TestTSOFullConstructibleSmall: because TSO is non-monotonic, the aug
// criterion is not equivalent to constructibility; the Theorem-10
// criterion (every one-node extension, every predecessor set) is. It
// holds everywhere at ≤3 nodes, 2 locations.
func TestTSOFullConstructibleSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive Theorem-10 sweep")
	}
	ops := computation.AllOps(2)
	checked := 0
	fail := ""
	enum.EachComputationUpTo(3, 2, func(c *computation.Computation) bool {
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if !memmodel.TSO.Contains(c, o) {
				return true
			}
			checked++
			if ext, ok := memmodel.ConstructibleAtFull(memmodel.TSO, c, o.Clone(), ops); !ok {
				fail = c.String() + " / " + o.String() + " stuck at " + ext.String()
				return false
			}
			return true
		})
		return fail == ""
	})
	if fail != "" {
		t.Fatalf("Theorem-10 criterion fails: %s", fail)
	}
	if checked == 0 {
		t.Fatal("sweep visited no TSO pairs")
	}
}

// TestStarTSOSmall: the Δ* fixpoint for TSO at ≤3 nodes — the
// constructible-version survivors collapse to LC on the interior, as
// they do for the paper's NN (Theorem 23). With TSO* ⊆ survivors this
// gives TSO* ⊆ LC at those sizes; LC ⊄ TSO in general (iriw), so it
// does not prove TSO* = LC.
func TestStarTSOSmall(t *testing.T) {
	rep := RunStar(memmodel.TSO, 3, 1, 0, nil)
	if !rep.OK() {
		t.Fatalf("TSO* survivors diverge from LC: %s", rep)
	}
	if rep.LCEqualUpTo != 2 {
		t.Errorf("LCEqualUpTo = %d, want 2", rep.LCEqualUpTo)
	}
}
