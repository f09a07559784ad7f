package paging

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// Allocation regression tests: once the dense index and node pool have
// grown to cover the working set, replaying through the array-backed
// kernels must not allocate at all. A regression here means a per-access
// allocation snuck back into the hot path. The //allocguard: markers tie
// each //lint:hotpath annotation to the AllocsPerRun measurement backing
// it; the lint suite's consistency test fails if they drift apart.

// allocguard:LRU.Access
func TestLRUZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-lru", 0))
	tr := localTrace(src, 2000, 128)
	l, err := NewLRU(32)
	if err != nil {
		t.Fatal(err)
	}
	l.Reserve(tr.MaxBlock())
	// Warm up: size the node pool and free list to the working set.
	for i := 0; i < tr.Len(); i++ {
		l.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			l.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("LRU steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// allocguard:FIFO.Access
func TestFIFOZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-fifo", 0))
	tr := localTrace(src, 2000, 128)
	f, err := NewFIFO(32)
	if err != nil {
		t.Fatal(err)
	}
	f.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		f.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			f.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("FIFO steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// allocguard:ARC.Access
func TestARCZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-arc", 0))
	tr := localTrace(src, 2000, 128)
	a, err := NewARC(32)
	if err != nil {
		t.Fatal(err)
	}
	a.Reserve(tr.MaxBlock())
	// Warm up: populate the lists and ghost history over the working set.
	for i := 0; i < tr.Len(); i++ {
		a.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			a.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("ARC steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// allocguard:TwoQ.Access
func TestTwoQZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-2q", 0))
	tr := localTrace(src, 2000, 128)
	q, err := NewTwoQ(32)
	if err != nil {
		t.Fatal(err)
	}
	q.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		q.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			q.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("2Q steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// TestSquareStreamBoundedState: the square replay's state depends on the
// block universe, not the stream length — feeding 10× more references of
// the same working set must not grow residency state.
func TestSquareStreamBoundedState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-square", 0))
	tr := localTrace(src, 1000, 64)
	d := newBoxReplay(nil, constSource{8}, 0, discardBox)
	d.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		d.Access(tr.Block(i))
	}
	if got := int64(len(d.resident)); got != tr.MaxBlock()+1 {
		t.Fatalf("residency state %d entries, want %d (max block + 1)", got, tr.MaxBlock()+1)
	}
}

// constSource is a fixed-size box source for tests.
type constSource struct{ size int64 }

func (c constSource) Next() int64 { return c.size }

// discardBox is an onBox callback for tests that do not read the boxes.
func discardBox(BoxStat) {}

// TestOptHeapZeroAllocSteadyState: the OPT cursor's indexed heap is
// allocated at the block universe, so filling it, raising keys in place
// and popping it empty again allocates nothing.
//
//allocguard:residentHeap.push
//allocguard:residentHeap.up
//allocguard:residentHeap.popMax
func TestOptHeapZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-opt", 0))
	const universe = 256
	keys := make([]uint64, universe)
	for b := range keys {
		keys[b] = src.Uint64()>>34<<32 | uint64(b)
	}
	h := newResidentHeap(universe)
	churn := func() {
		for _, k := range keys {
			h.push(k)
		}
		for b, k := range keys {
			h.up(int(h.slot[b]), k+1<<40)
		}
		for len(h.keys) > 0 {
			h.popMax()
		}
	}
	churn()
	if avg := testing.AllocsPerRun(10, churn); avg != 0 {
		t.Fatalf("resident heap push/raise/pop churn allocates %.1f times per run, want 0", avg)
	}
}

// TestSquareStreamZeroAllocSteadyState: with the residency array reserved
// and a box large enough to never close, serving references under square
// semantics allocates nothing. (Closing a box only calls onBox, so a run
// that closes many boxes allocates nothing either.)
//
// allocguard:BoxReplay.Access
func TestSquareStreamZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-squarestream", 0))
	tr := localTrace(src, 2000, 128)
	d := newBoxReplay(nil, constSource{1 << 40}, 0, discardBox)
	d.Reserve(tr.MaxBlock())
	d.Access(tr.Block(0)) // open the one huge box
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			d.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("square replay steady state allocates %.1f times per run, want 0", avg)
	}
}

// TestSquareFinisherZeroAllocSteadyState: the served-count shape
// ServedRepeat drives — one huge box opened up front, a box limit, reserved
// residency and a fresh-data epoch bump per repetition — allocates nothing
// per reference.
//
// allocguard:BoxReplay.Access
func TestSquareFinisherZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-squarefin", 0))
	tr := localTrace(src, 2000, 128)
	d := finisher(constSource{1 << 40}, 1)
	d.Reserve(tr.MaxBlock())
	avg := testing.AllocsPerRun(10, func() {
		d.epoch++
		for i := 0; i < tr.Len(); i++ {
			d.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("finisher steady state allocates %.1f times per run, want 0", avg)
	}
}

// TestPolicyStreamZeroAllocSteadyState: with the kernel reserved and a box
// large enough to never close, serving references through the live-kernel
// box replay allocates nothing.
//
// allocguard:BoxReplay.Access
func TestPolicyStreamZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-policystream", 0))
	tr := localTrace(src, 2000, 128)
	for _, name := range PolicyNames() {
		d, err := NewBoxReplay(name, nil, constSource{1 << 40}, 0, discardBox)
		if err != nil {
			t.Fatal(err)
		}
		d.Reserve(tr.MaxBlock())
		for i := 0; i < tr.Len(); i++ {
			d.Access(tr.Block(i))
		}
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < tr.Len(); i++ {
				d.Access(tr.Block(i))
			}
		})
		if avg != 0 {
			t.Fatalf("%s box replay steady state allocates %.1f times per run, want 0", name, avg)
		}
	}
}

// TestOPTReplayZeroAllocSteadyState: an OPT box replay allocates its
// residency array and heap when it starts, and nothing per reference: the
// heap's capacity is the plan's length. The plan repeats a base trace so
// each measured run feeds the cursor the next copy, at a capacity small
// enough to evict.
//
// allocguard:optCursor.Access
func TestOPTReplayZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-optcursor", 0))
	base := localTrace(src, 2000, 128)
	const copies = 12 // AllocsPerRun(10, ...) makes one warm-up call and 10 measured ones
	var b trace.Builder
	for r := 0; r < copies; r++ {
		trace.Replay(base, &b)
	}
	plan, err := NewOPTPlan(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewBoxReplay(OPTReplayName, plan, constSource{32}, 0, discardBox)
	if err != nil {
		t.Fatal(err)
	}
	d.Access(base.Block(0)) // open the first box
	fed := 1
	avg := testing.AllocsPerRun(10, func() {
		for i := fed; i < base.Len(); i++ {
			d.Access(base.Block(i))
		}
		fed = 0
	})
	if avg != 0 {
		t.Fatalf("OPT box replay steady state allocates %.1f times per run, want 0", avg)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSinkZeroAllocSteadyState: the cache adapter adds nothing on top
// of the warmed cache's own zero-allocation access.
//
// allocguard:CacheSink.Access
func TestCacheSinkZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-cachesink", 0))
	tr := localTrace(src, 2000, 128)
	l, err := NewLRU(32)
	if err != nil {
		t.Fatal(err)
	}
	l.Reserve(tr.MaxBlock())
	s := CacheSink{Cache: l}
	for i := 0; i < tr.Len(); i++ {
		s.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			s.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("CacheSink steady-state replay allocates %.1f times per run, want 0", avg)
	}
}
