package adaptivity

import (
	"math"
	"testing"

	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/xrand"
)

// ledgerFold folds a replay's per-box ledger after the fact, in box order —
// the reference the streamed fold must reproduce bit for bit.
func ledgerFold(spec regular.Spec, n int64, stats []paging.BoxStat) RunResult {
	res := RunResult{Spec: spec, N: n, Boxes: int64(len(stats))}
	for _, s := range stats {
		res.BoundedPotential += spec.BoundedPotential(s.Size, n)
		res.Progress += s.Leaves
		res.BoxSizeSum += s.Size
	}
	return res
}

func sameResult(got, want RunResult) bool {
	return got.Spec == want.Spec && got.N == want.N && got.Boxes == want.Boxes &&
		got.Progress == want.Progress && got.BoxSizeSum == want.BoxSizeSum &&
		math.Float64bits(got.BoundedPotential) == math.Float64bits(want.BoundedPotential)
}

// TestFoldMatchesLedger: for every replay name, folding boxes as they close
// (MeasureTracePolicy, and MeasureOPTPlan over a shared plan) gives exactly
// the result of folding PolicyRun's ledger of the materialized trace —
// against the worst-case profile and against i.i.d. boxes from its own
// size distribution, for MM-Scan at k = 3..5.
func TestFoldMatchesLedger(t *testing.T) {
	spec := regular.MMScanSpec
	for k := 3; k <= 5; k++ {
		n := profile.Pow(4, k)
		wc, err := profile.WorstCase(8, 4, n)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := xrand.WorstCaseBoxDist(8, 4, n)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := regular.SyntheticTrace(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := paging.NewOPTPlan(tr)
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]func() profile.Source{
			"worst-case": func() profile.Source {
				src, err := profile.NewSliceSource(wc)
				if err != nil {
					t.Fatal(err)
				}
				return src
			},
			"iid": func() profile.Source {
				rng := xrand.New(xrand.Split(14, "fold", int64(k)))
				return profile.FuncSource(func() int64 { return dist.Sample(rng) })
			},
		}
		for srcName, newSrc := range sources {
			for _, name := range paging.ReplayNames() {
				stats, err := paging.PolicyRun(name, tr, newSrc(), 0)
				if err != nil {
					t.Fatal(err)
				}
				want := ledgerFold(spec, n, stats)
				got, err := MeasureTracePolicy(spec, n, name, newSrc(), 0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Errorf("k=%d %s %s: fold %+v, ledger %+v", k, srcName, name, got, want)
				}
				if name != paging.OPTReplayName {
					continue
				}
				got, err = MeasureOPTPlan(spec, n, plan, newSrc(), 0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Errorf("k=%d %s: shared-plan fold %+v, ledger %+v", k, srcName, got, want)
				}
			}
		}
	}
}

// constSource is a fixed-size box source.
type constSource struct{ size int64 }

func (c constSource) Next() int64 { return c.size }

// TestMeasureAllocsIndependentOfBoxCount: a run that closes thousands of
// boxes allocates exactly as often as one that closes a single box, for the
// live kernels, the square replay and the OPT replay — boxes are folded as
// they close, never collected. The kernels are ARC and 2Q, whose Reserve
// sizes all their state: LRU and FIFO grow their node pools to the peak
// resident count, which here is the capacity, so their counts differ
// between the two runs for a reason unrelated to boxes.
func TestMeasureAllocsIndependentOfBoxCount(t *testing.T) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 4)
	for _, name := range []string{"arc", "2q", paging.SquareReplayName, paging.OPTReplayName} {
		var one, many RunResult
		allocs := func(size int64, res *RunResult) float64 {
			var src profile.Source = constSource{size} // box the source outside the measurement
			return testing.AllocsPerRun(3, func() {
				var err error
				if *res, err = MeasureTracePolicy(spec, n, name, src, 0); err != nil {
					t.Fatal(err)
				}
			})
		}
		oneAllocs, manyAllocs := allocs(1<<40, &one), allocs(1, &many)
		if one.Boxes != 1 || many.Boxes < 1000 {
			t.Fatalf("%s: runs closed %d and %d boxes, want 1 and thousands", name, one.Boxes, many.Boxes)
		}
		if oneAllocs != manyAllocs {
			t.Errorf("%s: %.0f allocs closing 1 box, %.0f closing %d boxes", name, oneAllocs, manyAllocs, many.Boxes)
		}
	}
}
