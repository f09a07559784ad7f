package paging

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func totalIOs(stats []BoxStat) int64 {
	var s int64
	for _, b := range stats {
		s += b.IOs
	}
	return s
}

// TestPolicyRunConstantProfileMatchesFixed pins the box replay to the
// DAM-model ground truth: with a constant box size M the capacity never
// changes and the cache is never cleared, so the total I/Os across boxes
// must equal the plain fixed-capacity miss count of the same policy — for
// every registered kernel and for the clairvoyant "opt" replay.
func TestPolicyRunConstantProfileMatchesFixed(t *testing.T) {
	names := append(PolicyNames(), OPTReplayName)
	for trial := 0; trial < 10; trial++ {
		src := xrand.New(xrand.Split(52, "policyrun-const", int64(trial)))
		tr := localTrace(src, 800, 1+src.Int63n(96))
		for _, m := range []int64{1, 3, 8, 21} {
			for _, name := range names {
				stats, err := replayLedger(name, nil, tr, constSource{m}, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := RunPolicyFixed(name, tr, m)
				if err != nil {
					t.Fatal(err)
				}
				if got := totalIOs(stats); got != want {
					t.Fatalf("trial %d, %s at M=%d: box replay cost %d, fixed replay %d",
						trial, name, m, got, want)
				}
				for i, b := range stats {
					if b.IOs > b.Size {
						t.Fatalf("%s box %d: %d I/Os over budget %d", name, i, b.IOs, b.Size)
					}
					if i < len(stats)-1 && b.IOs != b.Size {
						t.Fatalf("%s box %d closed with %d/%d I/Os", name, i, b.IOs, b.Size)
					}
				}
			}
		}
	}
}

// TestPolicyRunSquareRouting: the reserved "square" name must resolve to
// the cleared-cache square replay SquareRun drives.
func TestPolicyRunSquareRouting(t *testing.T) {
	src := xrand.New(xrand.Split(52, "policyrun-square", 0))
	tr := localTrace(src, 600, 48)
	boxes, err := profile.Sawtooth(2, 17, 9, 40)
	if err != nil {
		t.Fatal(err)
	}
	bs1, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayLedger(SquareReplayName, nil, tr, bs1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bs2, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SquareRun(tr, bs2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("square routing: %d boxes, SquareRun %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("square routing box %d: %+v, SquareRun %+v", i, got[i], want[i])
		}
	}
}

// TestPolicyRunVaryingProfileMatchesOracle drives the live-policy box
// replay over a sawtooth profile and re-derives its per-box cost from the
// naive oracles plus hand-rolled box accounting.
func TestPolicyRunVaryingProfileMatchesOracle(t *testing.T) {
	src := xrand.New(xrand.Split(53, "policyrun-vary", 0))
	tr := localTrace(src, 900, 64)
	boxes, err := profile.Sawtooth(2, 23, 11, 4000)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"arc", "2q"} {
		bs, err := profile.NewBoxesSource(boxes)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := replayLedger(name, nil, tr, bs, 0)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle replay with explicit box accounting.
		type oracle interface {
			Access(block int64) bool
			SetCapacity(capacity int64)
		}
		var o oracle
		switch name {
		case "arc":
			o = newOracleARC(boxes[0])
		case "2q":
			o = newOracle2Q(boxes[0])
		}
		var want []BoxStat
		bi := 0
		cur := BoxStat{Size: boxes[0]}
		for i := 0; i < tr.Len(); i++ {
			blk := tr.Block(i)
			// Residency must be checked before Access mutates state: a miss
			// with the budget spent belongs to the *next* box, under the
			// next box's capacity.
			resident := false
			switch v := o.(type) {
			case *oracleARC:
				resident = v.residentSet()[blk]
			case *oracle2Q:
				resident = v.residentSet()[blk]
			}
			if !resident && cur.IOs == cur.Size {
				want = append(want, cur)
				bi++
				cur = BoxStat{Size: boxes[bi]}
				o.SetCapacity(boxes[bi])
			}
			if o.Access(blk) {
				cur.Refs++
			} else {
				cur.IOs++
				cur.Refs++
			}
		}
		want = append(want, cur)

		if len(stats) != len(want) {
			t.Fatalf("%s: %d boxes, oracle %d", name, len(stats), len(want))
		}
		for i := range stats {
			if stats[i] != want[i] {
				t.Fatalf("%s box %d: %+v, oracle %+v", name, i, stats[i], want[i])
			}
		}
	}
}

// TestPolicyRunUnknownName: the error must list every accepted replay name
// so a flag typo is self-diagnosing.
func TestPolicyRunUnknownName(t *testing.T) {
	src := xrand.New(xrand.Split(54, "policyrun-unknown", 0))
	tr := localTrace(src, 10, 4)
	_, err := replayLedger("belady-crystal-ball", nil, tr, constSource{4}, 0)
	if err == nil {
		t.Fatal("unknown replay name accepted")
	}
	for _, name := range ReplayNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list accepted name %q", err, name)
		}
	}
}

// TestOPTPlanNeverWorseThanKernels: under a constant profile the
// clairvoyant replay is the true fixed-capacity OPT, so no kernel may beat
// it.
func TestOPTPlanNeverWorseThanKernels(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		src := xrand.New(xrand.Split(55, "optboxes-floor", int64(trial)))
		tr := localTrace(src, 700, 1+src.Int63n(48))
		plan, err := NewOPTPlan(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int64{2, 5, 13} {
			opt, err := replayLedger(OPTReplayName, plan, tr, constSource{m}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range PolicyNames() {
				on, err := replayLedger(name, nil, tr, constSource{m}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if totalIOs(opt) > totalIOs(on) {
					t.Fatalf("trial %d, M=%d: OPT cost %d beats %s cost %d the wrong way",
						trial, m, totalIOs(opt), name, totalIOs(on))
				}
			}
		}
	}
}

// leafTrace is a random trace with base-case markers after about a fifth
// of its references, some of them doubled (EndLeaf is idempotent per
// access).
func leafTrace(src *xrand.Source, n int, universe int64) *trace.Trace {
	var b trace.Builder
	for i := 0; i < n; i++ {
		b.Access(src.Int63n(universe))
		if src.Float64() < 0.2 {
			b.EndLeaf()
			if src.Float64() < 0.3 {
				b.EndLeaf()
			}
		}
	}
	return b.Build()
}

// randomBoxes is a source over a random profile of sizes in [1, maxSize].
func randomBoxes(t *testing.T, src *xrand.Source, n int, maxSize int64) *profile.BoxesSource {
	t.Helper()
	boxes := make([]int64, n)
	for i := range boxes {
		boxes[i] = 1 + src.Int63n(maxSize)
	}
	bs, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestPolicyRunCreditsEveryLeaf: every replay serves every reference once
// and credits every base case to exactly one box, so the ledger's Σ Refs
// and Σ Leaves are the trace's own counts — whatever the policy and the
// profile.
func TestPolicyRunCreditsEveryLeaf(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(56, "policyrun-leaves", int64(trial)))
		tr := leafTrace(src, 50+src.Intn(700), 1+src.Int63n(64))
		boxSeed := src.Uint64()
		for _, name := range ReplayNames() {
			stats, err := replayLedger(name, nil, tr, randomBoxes(t, xrand.New(boxSeed), 1+src.Intn(40), 24), 0)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, name, err)
			}
			var leaves, refs int64
			for _, s := range stats {
				leaves += s.Leaves
				refs += s.Refs
			}
			if leaves != tr.Leaves() || refs != int64(tr.Len()) {
				t.Fatalf("trial %d, %s: ledger credits %d leaves and %d refs, trace has %d and %d",
					trial, name, leaves, refs, tr.Leaves(), tr.Len())
			}
		}
	}
}

// TestOPTPlanSharedAcrossGoroutines runs one plan from several goroutines
// at once, each against its own profile, and requires every ledger to equal
// a run of a freshly built plan. Run under -race this also checks that a
// run never writes the shared plan.
func TestOPTPlanSharedAcrossGoroutines(t *testing.T) {
	src := xrand.New(xrand.Split(57, "optplan-shared", 0))
	tr := leafTrace(src, 3000, 96)
	shared, err := NewOPTPlan(tr)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	got := make([][]BoxStat, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		boxes := randomBoxes(t, xrand.New(seeds[i]), 64, 40)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = replayLedger(OPTReplayName, shared, tr, boxes, 0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		want, err := replayLedger(OPTReplayName, nil, tr, randomBoxes(t, xrand.New(seeds[i]), 64, 40), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("run %d on the shared plan: %d boxes %v, fresh plan %d boxes %v", i, len(got[i]), got[i], len(want), want)
		}
	}
}
