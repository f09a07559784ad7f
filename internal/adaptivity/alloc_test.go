package adaptivity

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/smoothing"
	"repro/internal/xrand"
)

// TestGapOnSourceExecReuseZeroAlloc pins the engine workers' reuse
// contract: once an executor has run (its frame stack grown and its
// potential memo allocated) and a smoothed-profile source has held a
// trial, resetting the source and measuring again allocates nothing — for
// each of the three streamed smoothings.
func TestGapOnSourceExecReuseZeroAlloc(t *testing.T) {
	n := profile.Pow(4, 6)
	wc, err := profile.WorstCase(8, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := smoothing.NewCodedProfile(wc)
	if err != nil {
		t.Fatal(err)
	}
	rotations, err := smoothing.NewRotationTable(wc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := regular.NewExec(regular.MMScanSpec, n)
	if err != nil {
		t.Fatal(err)
	}
	var (
		shuffled  smoothing.ShuffledSource
		perturbed smoothing.PerturbedSource
		rotated   smoothing.RotatedSource
	)
	trials := []struct {
		name  string
		src   profile.Source
		reset func(rng *xrand.Source)
	}{
		{"shuffled", &shuffled, func(rng *xrand.Source) { shuffled.Reset(coded, rng) }},
		{"perturbed", &perturbed, func(rng *xrand.Source) {
			if err := perturbed.Reset(wc, rng, 3); err != nil { // off-power sizes exercise more memo slots
				t.Fatal(err)
			}
		}},
		{"rotated", &rotated, func(rng *xrand.Source) { rotated.Reset(rotations, rng) }},
	}
	var rng xrand.Source // outside the measured runs: reset hands it on through a func value
	for _, tc := range trials {
		run := func() RunResult {
			rng = *xrand.New(7)
			tc.reset(&rng)
			res, err := GapOnSourceExec(e, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		first := run()
		var again RunResult
		allocs := testing.AllocsPerRun(5, func() { again = run() })
		if allocs != 0 {
			t.Errorf("%s: GapOnSourceExec on a reused source and executor: %.1f allocs/run, want 0", tc.name, allocs)
		}
		if again != first {
			t.Errorf("%s: reused run %+v, first run %+v", tc.name, again, first)
		}
	}
}
