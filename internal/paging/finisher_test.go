package paging

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// cycling returns a source cycling over boxes. BoxesSource does not
// validate sizes, which lets error-parity tests inject invalid boxes.
func cycling(t testing.TB, boxes []int64) *profile.BoxesSource {
	t.Helper()
	src, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// cycleBoxes materializes the first n boxes of the cycled sequence, for
// slice-backed SquareFinisher baselines.
func cycleBoxes(boxes []int64, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = boxes[i%len(boxes)]
	}
	return out
}

// replayOf adapts a materialized trace to ServedRepeat's emitter.
func replayOf(tr *trace.Trace) func(trace.Sink) error {
	return func(s trace.Sink) error {
		trace.Replay(tr, s)
		return nil
	}
}

// shiftedServed is ServedRepeat's reference: the repetitions relocated to
// fresh address ranges (stride MaxBlock()+1) and replayed into a finisher
// over the materialized boxes.
func shiftedServed(tr *trace.Trace, boxes []int64, nBoxes int64, reps int) (int64, error) {
	f := NewSquareFinisher(cycleBoxes(boxes, nBoxes))
	f.Reserve(tr.MaxBlock())
	trace.ReplayRepeat(tr, f, reps, tr.MaxBlock()+1)
	return f.Served(), f.Err()
}

// sameOutcome fails unless two (served, error) pairs agree exactly,
// error text included.
func sameOutcome(t *testing.T, what string, got, want int64, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("%s: served %d, want %d", what, got, want)
	}
}

// --- ServedRepeat -----------------------------------------------------------

func TestServedRepeatMatchesShiftedReplay(t *testing.T) {
	rng := xrand.New(0x5c1)
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 30+rng.Intn(800), 1+rng.Int63n(48))
		boxes := make([]int64, 1+rng.Intn(4))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(12)
		}
		nBoxes := 1 + rng.Int63n(200)
		reps := 1 + rng.Intn(6)
		want, wantErr := shiftedServed(tr, boxes, nBoxes, reps)
		got, err := ServedRepeat(replayOf(tr), tr.MaxBlock(), cycling(t, boxes), nBoxes, reps)
		sameOutcome(t, "ServedRepeat", got, want, err, wantErr)
	}
}

func TestServedRepeatPropagatesEmitError(t *testing.T) {
	boom := errors.New("boom")
	_, err := ServedRepeat(func(trace.Sink) error { return boom }, 4, cycling(t, []int64{3}), 5, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("emit error = %v, want %v", err, boom)
	}
}

func TestServedEmitRepeatParallelMatchesSerial(t *testing.T) {
	// The deprecated name forwards to ServedRepeat whatever shard count it
	// is given.
	rng := xrand.New(0x5d1)
	for trial := 0; trial < 20; trial++ {
		tr := randomTrace(rng, 30+rng.Intn(800), 1+rng.Int63n(48))
		boxes := make([]int64, 1+rng.Intn(4))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(12)
		}
		nBoxes := 1 + rng.Int63n(200)
		reps := 1 + rng.Intn(6)
		want, wantErr := shiftedServed(tr, boxes, nBoxes, reps)
		for _, shards := range []int{1, 2, 8} {
			got, err := ServedEmitRepeatParallel(replayOf(tr), int64(tr.Len()), tr.MaxBlock(),
				cycling(t, boxes), nBoxes, reps, tr.MaxBlock()+1, shards)
			sameOutcome(t, "ServedEmitRepeatParallel", got, want, err, wantErr)
		}
	}
}

func TestServedEmitRepeatParallelRejectsOverlappingStride(t *testing.T) {
	// A stride inside the base workload's block range would reuse data
	// across repetitions, which the epoch bump does not model.
	tr := randomTrace(xrand.New(0x5c2), 600, 48)
	for _, stride := range []int64{0, 1, tr.MaxBlock()} {
		if _, err := ServedEmitRepeatParallel(replayOf(tr), int64(tr.Len()), tr.MaxBlock(),
			cycling(t, []int64{5, 9}), 80, 4, stride, 1); err == nil {
			t.Fatalf("stride %d <= maxBlock %d accepted", stride, tr.MaxBlock())
		}
	}
}

func TestDefaultShardsStaysSerialWithoutIdleWorkers(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	for _, workers := range []int{1, 4} {
		engine.SetSharedWorkers(workers)
		if got := DefaultShards(); got != 1 {
			t.Fatalf("DefaultShards() on a %d-worker pool = %d, want 1", workers, got)
		}
	}
}

// --- SquareFinisher ---------------------------------------------------------

func TestSquareFinisherSourceMatchesSlice(t *testing.T) {
	// A finisher pulling boxes from a source serves exactly what one over
	// the materialized box slice serves.
	rng := xrand.New(0x5e1)
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 20+rng.Intn(600), 1+rng.Int63n(32))
		boxes := make([]int64, 1+rng.Intn(5))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(10)
		}
		nBoxes := 1 + rng.Int63n(60)
		mat := NewSquareFinisher(cycleBoxes(boxes, nBoxes))
		str := newSquareFinisher(cycling(t, boxes), nBoxes)
		trace.ReplayRepeat(tr, mat, 3, tr.MaxBlock()+1)
		trace.ReplayRepeat(tr, str, 3, tr.MaxBlock()+1)
		if str.Served() != mat.Served() || str.Stopped() != mat.Stopped() {
			t.Fatalf("trial %d: source-fed (served %d, stopped %v) != slice-fed (served %d, stopped %v)",
				trial, str.Served(), str.Stopped(), mat.Served(), mat.Stopped())
		}
	}
}

func TestSquareFinisherErrorParity(t *testing.T) {
	// An invalid first box is reported before any access; a later one when
	// the stream reaches it. The slice-fed finisher, the source-fed one and
	// ServedRepeat must agree on the served count and the error text.
	tr := buildTrace([]int64{0, 1, 2, 3, 4, 5}, nil)
	for _, c := range []struct {
		boxes      []int64
		eager      bool
		wantServed int64
	}{
		{[]int64{0}, true, 0},
		{[]int64{3, -1}, false, 3},
	} {
		mat := NewSquareFinisher(c.boxes)
		str := newSquareFinisher(cycling(t, c.boxes), int64(len(c.boxes)))
		if (mat.Err() != nil) != c.eager || (str.Err() != nil) != c.eager {
			t.Fatalf("boxes %v: eager error %v / %v, want present=%v", c.boxes, mat.Err(), str.Err(), c.eager)
		}
		trace.Replay(tr, mat)
		trace.Replay(tr, str)
		if mat.Err() == nil {
			t.Fatalf("boxes %v: invalid box not reported", c.boxes)
		}
		sameOutcome(t, "source-fed finisher", str.Served(), mat.Served(), str.Err(), mat.Err())
		served, err := ServedRepeat(replayOf(tr), tr.MaxBlock(), cycling(t, c.boxes), int64(len(c.boxes)), 2)
		sameOutcome(t, "ServedRepeat", served, mat.Served(), err, mat.Err())
		if mat.Served() != c.wantServed {
			t.Fatalf("boxes %v: served %d before the invalid box, want %d", c.boxes, mat.Served(), c.wantServed)
		}
	}
}

// --- EndLeaf after error (regression) ---------------------------------------

func TestSquareStreamEndLeafAfterInvalidBoxDoesNotPanic(t *testing.T) {
	// A generator emits Access then EndLeaf; if the access was rejected
	// (invalid first box), the marker has no box to credit and must be
	// ignored, not panic with "EndLeaf before any access".
	q := NewSquareStream(profile.FuncSource(func() int64 { return 0 }), 0, discardBox)
	q.Access(1)
	q.EndLeaf() // must not panic
	if err := q.Finish(); err == nil {
		t.Fatal("expected invalid-box error")
	}
}

func TestSquareStreamEndLeafAfterMaxBoxesDoesNotMutateClosedBox(t *testing.T) {
	// maxBoxes trips when box 2 would open; the EndLeaf for the rejected
	// access must neither panic nor retroactively credit box 1's ledger.
	var stats []BoxStat
	q := NewSquareStream(cycling(t, []int64{1}), 1, func(s BoxStat) { stats = append(stats, s) })
	q.Access(0)
	q.EndLeaf()
	q.Access(1) // needs a second box: exceeds maxBoxes
	q.EndLeaf() // must not panic, must not touch the closed box
	if err := q.Finish(); err == nil {
		t.Fatal("expected maxBoxes error")
	}
	if len(stats) != 1 || stats[0].Leaves != 1 {
		t.Fatalf("closed box mutated after error: %+v", stats)
	}
}

func TestSquareStreamEndLeafBeforeAccessStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EndLeaf before any access on a healthy stream must panic")
		}
	}()
	NewSquareStream(cycling(t, []int64{4}), 0, discardBox).EndLeaf()
}

// --- Early stop (regression) ------------------------------------------------

// countingFinisher counts how many accesses a replay actually delivers to
// the wrapped finisher, delegating the Stopper signal.
type countingFinisher struct {
	*SquareFinisher
	delivered int
}

func (c *countingFinisher) Access(block int64) {
	c.delivered++
	c.SquareFinisher.Access(block)
}

func (c *countingFinisher) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		c.Access(lo + i)
	}
}

func TestReplayRangeHaltsAtFinisherBoundary(t *testing.T) {
	// 100k-reference trace, boxes that serve ~3 references: the replay
	// must stop within a ref or two of the boundary instead of streaming
	// the whole suffix into a finisher that ignores it.
	b := &trace.Builder{}
	for i := 0; i < 100_000; i++ {
		b.Access(int64(i))
	}
	tr := b.Build()
	f := &countingFinisher{SquareFinisher: NewSquareFinisher([]int64{3})}
	trace.ReplayRange(tr, f, 0, tr.Len())
	if !f.Done() {
		t.Fatal("finisher should have exhausted its boxes")
	}
	if f.delivered > int(f.Served())+2 {
		t.Fatalf("replay delivered %d references past a boundary at %d", f.delivered, f.Served())
	}
}

func TestReplayRepeatHaltsAtFinisherBoundary(t *testing.T) {
	b := &trace.Builder{}
	for i := 0; i < 1000; i++ {
		b.Access(int64(i))
	}
	tr := b.Build()
	f := &countingFinisher{SquareFinisher: NewSquareFinisher([]int64{5})}
	trace.ReplayRepeat(tr, f, 50, tr.MaxBlock()+1)
	if f.delivered > int(f.Served())+2 {
		t.Fatalf("repeat replay delivered %d references past a boundary at %d", f.delivered, f.Served())
	}
}

// --- Fuzz -------------------------------------------------------------------

// FuzzServedRepeatMatchesShiftedReplay checks ServedRepeat's epoch bump
// against the address-shifted reference (NewSquareFinisher +
// trace.ReplayRepeat at stride MaxBlock()+1) on three workloads per input:
// a random trace over a cycled profile (boxes often run out
// mid-repetition), the same with one box made invalid, and MM-InPlace at
// dim 32, whose emitter uses AccessRange. The corpus inputs parameterize
// deterministic generators, so every failure replays exactly.
func FuzzServedRepeatMatchesShiftedReplay(f *testing.F) {
	f.Add(uint64(1), 100, int64(8), int64(5), int64(40), 2)
	f.Add(uint64(2), 2000, int64(64), int64(17), int64(9), 5)
	f.Add(uint64(3), 17, int64(1), int64(1), int64(1), 1)
	inplace := &trace.Builder{}
	if err := matrix.EmitMulInPlace(32, 8, inplace); err != nil {
		f.Fatal(err)
	}
	inplaceTr := inplace.Build()
	emitInPlace := func(s trace.Sink) error { return matrix.EmitMulInPlace(32, 8, s) }
	f.Fuzz(func(t *testing.T, seed uint64, refs int, blockRange, maxBox, nBoxes int64, reps int) {
		if refs < 1 || refs > 5000 || blockRange < 1 || blockRange > 512 ||
			maxBox < 1 || maxBox > 64 || nBoxes < 1 || nBoxes > 500 || reps < 1 || reps > 8 {
			t.Skip()
		}
		rng := xrand.New(seed)
		tr := randomTrace(rng, refs, blockRange)
		boxes := make([]int64, 1+rng.Intn(6))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(maxBox)
		}

		want, wantErr := shiftedServed(tr, boxes, nBoxes, reps)
		got, err := ServedRepeat(replayOf(tr), tr.MaxBlock(), cycling(t, boxes), nBoxes, reps)
		sameOutcome(t, "random trace", got, want, err, wantErr)

		bad := append([]int64(nil), boxes...)
		bad[rng.Intn(len(bad))] = -rng.Int63n(2) // 0 or -1
		want, wantErr = shiftedServed(tr, bad, nBoxes, reps)
		got, err = ServedRepeat(replayOf(tr), tr.MaxBlock(), cycling(t, bad), nBoxes, reps)
		sameOutcome(t, "invalid box", got, want, err, wantErr)

		// Scale the boxes up so the profile covers a few multiplies.
		big := make([]int64, len(boxes))
		for i, b := range boxes {
			big[i] = b * 16
		}
		want, wantErr = shiftedServed(inplaceTr, big, nBoxes, reps)
		got, err = ServedRepeat(emitInPlace, inplaceTr.MaxBlock(), cycling(t, big), nBoxes, reps)
		sameOutcome(t, "MM-InPlace dim 32", got, want, err, wantErr)
	})
}
