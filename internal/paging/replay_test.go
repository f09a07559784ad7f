package paging

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// replayLedger replays tr through the named box replay and returns its
// per-box ledger; plan, if nil, is built when the replay needs one. On
// error the ledger holds the boxes closed before it.
func replayLedger(name string, plan *OPTPlan, tr *trace.Trace, src profile.Source, maxBoxes int64) ([]BoxStat, error) {
	if plan == nil && NeedsPlan(name) {
		var err error
		if plan, err = NewOPTPlan(tr); err != nil {
			return nil, err
		}
	}
	var stats []BoxStat
	d, err := NewBoxReplay(name, plan, src, maxBoxes, func(s BoxStat) { stats = append(stats, s) })
	if err != nil {
		return nil, err
	}
	d.Reserve(tr.MaxBlock())
	trace.Replay(tr, d)
	err = d.Finish() // closes the last box: read stats after it
	return stats, err
}

// TestBoxReplayEdgeCases holds every replay name to the driver's contract
// at its edges: the box-limit error, a rejected size-0 box, an empty
// stream, and EndLeaf around them.
func TestBoxReplayEdgeCases(t *testing.T) {
	// Two misses with a leaf after the first; the OPT replay is fed exactly
	// its plan's trace.
	tr := buildTrace([]int64{0, 1}, map[int]bool{0: true})
	plan, err := NewOPTPlan(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ReplayNames() {
		t.Run(name, func(t *testing.T) {
			newReplay := func(src profile.Source, maxBoxes int64, onBox func(BoxStat)) *BoxReplay {
				t.Helper()
				d, err := NewBoxReplay(name, plan, src, maxBoxes, onBox)
				if err != nil {
					t.Fatal(err)
				}
				d.Reserve(tr.MaxBlock())
				return d
			}

			// Box limit: the second miss would open box 2 of at most 1. The
			// EndLeaf for the rejected access must neither panic nor credit
			// the closed box.
			var stats []BoxStat
			d := newReplay(constSource{1}, 1, func(s BoxStat) { stats = append(stats, s) })
			d.Access(0)
			d.EndLeaf()
			d.Access(1)
			d.EndLeaf()
			if err := d.Finish(); err == nil || err.Error() != "paging: run exceeded 1 boxes" {
				t.Fatalf("box limit: error %v, want \"paging: run exceeded 1 boxes\"", err)
			}
			if want := []BoxStat{{Size: 1, IOs: 1, Leaves: 1, Refs: 1}}; !slices.Equal(stats, want) {
				t.Fatalf("box limit: closed boxes %+v, want %+v", stats, want)
			}

			// A size-0 box is rejected, and the marker for the access it
			// rejected is ignored.
			d = newReplay(constSource{0}, 0, func(s BoxStat) { t.Fatalf("size-0 run closed box %+v", s) })
			d.Access(0)
			d.EndLeaf()
			if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "box source produced size 0") {
				t.Fatalf("size-0 box: error %v", err)
			}

			// An empty stream closes no box.
			d = newReplay(constSource{4}, 0, func(s BoxStat) { t.Fatalf("empty stream closed box %+v", s) })
			if err := d.Finish(); err != nil {
				t.Fatalf("empty stream: %v", err)
			}

			// EndLeaf before any access on a healthy replay is a generator
			// bug.
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("EndLeaf before any access must panic")
					}
				}()
				newReplay(constSource{4}, 0, nil).EndLeaf()
			}()
		})
	}
}

// TestOPTReplayPanicsOnDivergence: the OPT cursor's next-use keys are only
// right for its plan's trace, so a stream that differs from it — a wrong
// block, or a reference past its end — must panic rather than count.
func TestOPTReplayPanicsOnDivergence(t *testing.T) {
	tr := buildTrace([]int64{0, 1, 2}, nil)
	plan, err := NewOPTPlan(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		blocks []int64
	}{
		{"wrong block", []int64{0, 2}},
		{"past the end", []int64{0, 1, 2, 0}},
	} {
		d, err := NewBoxReplay(OPTReplayName, plan, constSource{2}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: fed %v, no panic", c.what, c.blocks)
				}
			}()
			for _, b := range c.blocks {
				d.Access(b)
			}
		}()
	}
	if _, err := NewBoxReplay(OPTReplayName, nil, constSource{2}, 0, nil); err == nil {
		t.Fatal("opt replay without a plan accepted")
	}
}

// TestOPTBoxReplayMatchesEvictOnMiss: the OPT cursor evicts down to a new
// box's capacity when the box opens. A box only opens on a miss, so that
// must equal the direct rule — on every miss, evict farthest-next-use
// blocks until the miss fits the current box — replayed here with the
// oracle heap, box by box.
func TestOPTBoxReplayMatchesEvictOnMiss(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(58, "opt-evict-on-miss", int64(trial)))
		tr := leafTrace(src, 100+src.Intn(900), 1+src.Int63n(80))
		boxSeed := src.Uint64()
		nBoxes := 1 + src.Intn(60)
		got, err := replayLedger(OPTReplayName, nil, tr, randomBoxes(t, xrand.New(boxSeed), nBoxes, 30), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := evictOnMissOPT(tr, randomBoxes(t, xrand.New(boxSeed), nBoxes, 30))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: cursor ledger %v, evict-on-miss ledger %v", trial, got, want)
		}
	}
}

// evictOnMissOPT is the box-following OPT replay written directly: a map of
// resident blocks to their next use, and a linear farthest-next-use scan.
func evictOnMissOPT(tr *trace.Trace, src profile.Source) []BoxStat {
	n := tr.Len()
	nextUse := make([]int, n)
	last := map[int64]int{}
	for i := n - 1; i >= 0; i-- {
		nextUse[i] = n
		if j, ok := last[tr.Block(i)]; ok {
			nextUse[i] = j
		}
		last[tr.Block(i)] = i
	}
	var stats []BoxStat
	resident := map[int64]int{}
	var cur BoxStat
	for i := 0; i < n; i++ {
		blk := tr.Block(i)
		if _, hit := resident[blk]; !hit {
			if i == 0 || cur.IOs == cur.Size {
				if i > 0 {
					stats = append(stats, cur)
				}
				cur = BoxStat{Size: src.Next()}
			}
			for int64(len(resident)) >= cur.Size {
				victim, far := int64(-1), -1
				for b, nu := range resident {
					if nu > far || (nu == far && b > victim) {
						victim, far = b, nu
					}
				}
				delete(resident, victim)
			}
			cur.IOs++
		}
		resident[blk] = nextUse[i]
		cur.Refs++
		if tr.EndsLeaf(i) {
			cur.Leaves++
		}
	}
	if n > 0 {
		stats = append(stats, cur)
	}
	return stats
}
