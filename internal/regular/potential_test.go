package regular

import (
	"math"
	"testing"

	"repro/internal/profile"
)

// TestExecBoundedPotentialMatchesSpec pins the executor's memoised
// potential to the definition bit for bit: every named spec, n = b^1..b^7,
// every box in 1..2n (each looked up twice, so both the filling and the
// memoised read are checked), and boxes around and above the memo cap on a
// problem large enough that they are not clamped.
func TestExecBoundedPotentialMatchesSpec(t *testing.T) {
	check := func(e *Exec, box int64) {
		t.Helper()
		want := e.Spec().BoundedPotential(box, e.N())
		for pass := 0; pass < 2; pass++ {
			if got := e.BoundedPotential(box); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v n=%d box=%d pass %d: memo %v (%#x), spec %v (%#x)",
					e.Spec(), e.N(), box, pass, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, spec := range []Spec{MMScanSpec, MMInPlaceSpec, StrassenSpec, LCSSpec} {
		for k := 1; k <= 7; k++ {
			e := mustExec(t, spec, profile.Pow(spec.B, k))
			for box := int64(1); box <= 2*e.N(); box++ {
				check(e, box)
			}
		}
		e := mustExec(t, spec, profile.Pow(spec.B, 18/int(math.Log2(float64(spec.B)))))
		if e.N() <= 2*potMemoCap {
			t.Fatalf("%v: n=%d does not exceed the memo cap", spec, e.N())
		}
		for _, box := range []int64{potMemoCap - 2, potMemoCap - 1, potMemoCap, potMemoCap + 1, 2*potMemoCap + 3, e.N() - 1, e.N(), e.N() + 1, 1 << 40} {
			check(e, box)
		}
		if len(e.pots) > potMemoCap {
			t.Errorf("%v n=%d: memo grew to %d entries, cap %d", spec, e.N(), len(e.pots), potMemoCap)
		}
	}
}
