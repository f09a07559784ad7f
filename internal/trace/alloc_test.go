package trace

import "testing"

// Allocation regression tests for the //lint:hotpath functions in this
// package. The //allocguard: markers tie each hotpath annotation to the
// AllocsPerRun measurement that backs it; the lint suite's consistency
// test (internal/lint) fails if an annotation and its marker drift apart.

// allocTrace materializes a small trace with leaf markers for replay
// measurements.
func allocTrace() *Trace {
	b := &Builder{}
	for i := 0; i < 512; i++ {
		b.Access(int64(i % 37))
		if i%8 == 7 {
			b.EndLeaf()
		}
	}
	return b.Build()
}

// TestReplayZeroAlloc: replaying a materialized trace into the counting
// sink must not allocate — not per access, not per leaf, not per call.
//
// allocguard:Replay
// allocguard:ReplayRange
// allocguard:CountingSink.Access
// allocguard:CountingSink.AccessRange
// allocguard:CountingSink.EndLeaf
func TestReplayZeroAlloc(t *testing.T) {
	tr := allocTrace()
	var cs CountingSink
	avg := testing.AllocsPerRun(10, func() {
		Replay(tr, &cs)
		ReplayRange(tr, &cs, 1, tr.Len()-1)
		cs.AccessRange(0, 64)
	})
	if avg != 0 {
		t.Fatalf("Replay/ReplayRange allocate %.1f times per run, want 0", avg)
	}
}

// TestReplayRepeatZeroAlloc: the shifted repetition must not allocate per
// repetition. This is the regression test for the shifting-adapter boxing
// that used to cost one heap allocation per rep.
//
// allocguard:ReplayRepeat
func TestReplayRepeatZeroAlloc(t *testing.T) {
	tr := allocTrace()
	var cs CountingSink
	stride := tr.MaxBlock() + 1
	avg := testing.AllocsPerRun(10, func() {
		ReplayRepeat(tr, &cs, 4, stride)
		ReplayRepeat(tr, &cs, 2, 0)
	})
	if avg != 0 {
		t.Fatalf("ReplayRepeat allocates %.1f times per run, want 0", avg)
	}
}
