package paging

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// lazyOPTCursor is the OPT cursor the indexed resident heap replaced, kept
// as a differential oracle: one heap entry pushed per reference, stale
// entries skipped at eviction time. An entry is live iff its nextUse
// matches the block's current one, which is unambiguous because a block's
// successive next-use positions are distinct.
type lazyOPTCursor struct {
	plan     *OPTPlan
	curNext  []int32 // live entry's nextUse for resident block b; -1 when absent
	h        lazyHeap
	pos      int
	size     int64
	capacity int64
	misses   int64
}

func newLazyOPTCursor(p *OPTPlan) *lazyOPTCursor {
	curNext := make([]int32, p.tr.MaxBlock()+1)
	for i := range curNext {
		curNext[i] = -1
	}
	return &lazyOPTCursor{plan: p, curNext: curNext}
}

func (c *lazyOPTCursor) Contains(block int64) bool {
	return block >= 0 && block < int64(len(c.curNext)) && c.curNext[block] >= 0
}

func (c *lazyOPTCursor) Access(block int64) bool {
	key := c.plan.keys[c.pos]
	if int64(uint32(key)) != block {
		panic("lazyOPTCursor: fed a block off its plan")
	}
	c.pos++
	hit := c.curNext[block] >= 0
	if !hit {
		c.misses++
		if c.size >= c.capacity {
			c.evict()
		}
		c.size++
	}
	c.curNext[block] = int32(key >> 32)
	c.h.push(key)
	return hit
}

func (c *lazyOPTCursor) evict() {
	for {
		top := c.h.pop()
		b := int64(uint32(top))
		if c.curNext[b] == int32(top>>32) {
			c.curNext[b] = -1
			c.size--
			return
		}
	}
}

func (c *lazyOPTCursor) SetCapacity(capacity int64) error {
	c.capacity = capacity
	for c.size > capacity {
		c.evict()
	}
	return nil
}

func (c *lazyOPTCursor) Reserve(int64) {}

func (c *lazyOPTCursor) Misses() int64 { return c.misses }

// lazyHeap is a max-heap of packed (nextUse<<32 | block) keys.
type lazyHeap []uint64

func (h *lazyHeap) push(x uint64) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] >= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *lazyHeap) pop() uint64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && s[l] > s[big] {
			big = l
		}
		if r < n && s[r] > s[big] {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	return top
}

// compareOPTCursors replays tr through the cursor and the lazy-heap oracle
// in lockstep under the box rule — a box of size X sets capacity X and
// grants X misses; the next box opens on the first miss after that —
// with box sizes cycling through boxes. After every reference it compares
// the hit, every block's residency and the miss count.
func compareOPTCursors(t *testing.T, tr *trace.Trace, boxes []int64) {
	t.Helper()
	plan, err := NewOPTPlan(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, want := plan.cursor(), newLazyOPTCursor(plan)
	var budget int64
	next := 0
	for i := 0; i < tr.Len(); i++ {
		blk := tr.Block(i)
		if !want.Contains(blk) && budget == 0 {
			size := boxes[next%len(boxes)]
			next++
			if err := got.SetCapacity(size); err != nil {
				t.Fatal(err)
			}
			if err := want.SetCapacity(size); err != nil {
				t.Fatal(err)
			}
			budget = size
		}
		g, w := got.Access(blk), want.Access(blk)
		if g != w {
			t.Fatalf("ref %d (block %d, box %d): hit=%v, lazy heap %v", i, blk, next, g, w)
		}
		if !w {
			budget--
		}
		for b := int64(-1); b <= tr.MaxBlock()+1; b++ {
			if got.Contains(b) != want.Contains(b) {
				t.Fatalf("ref %d: block %d resident=%v, lazy heap %v", i, b, got.Contains(b), want.Contains(b))
			}
		}
		if got.Misses() != want.Misses() {
			t.Fatalf("ref %d: %d misses, lazy heap %d", i, got.Misses(), want.Misses())
		}
		if int64(len(got.h.keys)) > got.capacity {
			t.Fatalf("ref %d: %d resident over capacity %d", i, len(got.h.keys), got.capacity)
		}
	}
}

// TestOPTCursorMatchesLazyHeap: the indexed resident heap evicts exactly
// the lazy-deletion heap's victims on random traces under random box
// schedules — sizes from 1 to beyond the universe, so boxes both grow and
// shrink the cache by many blocks at once — and at fixed capacities.
func TestOPTCursorMatchesLazyHeap(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		src := xrand.New(xrand.Split(16, "opt-lazy", int64(trial)))
		universe := 1 + src.Int63n(80)
		tr := localTrace(src, 1+src.Intn(600), universe)
		boxes := make([]int64, 1+src.Intn(12))
		for i := range boxes {
			boxes[i] = 1 + src.Int63n(universe+4)
		}
		compareOPTCursors(t, tr, boxes)
		compareOPTCursors(t, tr, []int64{1 + src.Int63n(universe)})
	}
}

// FuzzOPTCursorMatchesLazyHeap is TestOPTCursorMatchesLazyHeap over
// fuzz-chosen traces and box schedules: each byte of refs is a block in a
// universe of 64, each byte of boxes a box size in [1, 64].
func FuzzOPTCursorMatchesLazyHeap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 4, 5, 1, 6, 2}, []byte{3})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0}, []byte{8, 1, 5, 2})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte{40, 2, 17, 1, 63})
	f.Fuzz(func(t *testing.T, refs, boxes []byte) {
		if len(refs) == 0 || len(boxes) == 0 {
			return
		}
		var b trace.Builder
		for _, r := range refs {
			b.Access(int64(r & 63))
		}
		sizes := make([]int64, len(boxes))
		for i, by := range boxes {
			sizes[i] = int64(by&63) + 1
		}
		compareOPTCursors(t, b.Build(), sizes)
	})
}
