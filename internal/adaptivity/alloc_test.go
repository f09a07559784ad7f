package adaptivity

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/regular"
)

// TestGapOnBoxesExecReuseZeroAlloc pins the engine workers' reuse contract:
// once an executor has run (its frame stack grown and its potential memo
// allocated), a second measurement on it allocates nothing.
func TestGapOnBoxesExecReuseZeroAlloc(t *testing.T) {
	n := profile.Pow(4, 6)
	wc, err := profile.WorstCase(8, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	boxes := wc.Boxes()
	for i := range boxes {
		boxes[i] += int64(i % 3) // off-power sizes exercise more memo slots
	}
	e, err := regular.NewExec(regular.MMScanSpec, n)
	if err != nil {
		t.Fatal(err)
	}
	src, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	first, err := GapOnBoxesExec(e, src, boxes)
	if err != nil {
		t.Fatal(err)
	}
	var again RunResult
	allocs := testing.AllocsPerRun(5, func() {
		if again, err = GapOnBoxesExec(e, src, boxes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GapOnBoxesExec on a reused executor: %.1f allocs/run, want 0", allocs)
	}
	if again != first {
		t.Errorf("reused run %+v, first run %+v", again, first)
	}
}
