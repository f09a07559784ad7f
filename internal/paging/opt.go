package paging

import (
	"fmt"

	"repro/internal/trace"
)

// This file implements Belady's OPT (farthest-in-future) replacement as a
// box-replay kernel. OPT gives the offline-optimal miss count at a fixed
// capacity, which the DAM-validation experiment uses to confirm that LRU's
// constant factor on our traces is benign, and under a box profile it is
// the clairvoyant baseline of the adaptivity-gap-by-policy experiment.
//
// Next-use positions are precomputed in a single backward pass over the
// trace using a dense last-seen array, and the farthest-in-future choice is
// a hand-rolled max-heap of packed uint64 keys (nextUse in the high 32
// bits, block in the low 32) — no interface boxing, no per-entry
// allocation. Stale heap entries are invalidated lazily: an entry is live
// iff its nextUse matches the block's current one, which is unambiguous
// because a block's successive next-use positions are distinct (the "never
// used again" sentinel n appears at most once per block). Ties can
// therefore only occur among never-used-again blocks, where the eviction
// choice cannot change the miss count.

// optNever marks "no further use"; as a next-use position it sorts after
// every real index.
const optNever = int32(-1)

// OPTPlan is the clairvoyant replay's precomputation: a trace and its
// next-use table, built once in one backward pass. A BoxReplay named "opt"
// (or RunPolicyFixed) replays it through a per-run cursor.
//
// With a *changing* capacity, greedy farthest-in-future is a natural
// baseline rather than a provably optimal schedule — Belady's exchange
// argument needs a fixed capacity. Every online policy still replays
// against strictly less information, so the baseline is an honest floor in
// practice on the repository's traces.
//
// A plan is never written after NewOPTPlan: each run keeps its state in
// its own cursor, so one plan may be replayed from any number of
// goroutines at once, each against its own box source.
type OPTPlan struct {
	tr *trace.Trace
	// keys[i] is reference i's heap key: the position of the block's next
	// reference (tr.Len() if none) in the high 32 bits, the block in the
	// low 32.
	keys []uint64
}

// NewOPTPlan precomputes tr's next-use table. The trace must not be
// mutated while the plan is in use.
func NewOPTPlan(tr *trace.Trace) (*OPTPlan, error) {
	n := tr.Len()
	if int64(n) >= 1<<31 || tr.MaxBlock() >= 1<<31 {
		return nil, fmt.Errorf("paging: OPT index overflow (%d refs, max block %d)", n, tr.MaxBlock())
	}
	keys := make([]uint64, n)
	last := make([]int32, tr.MaxBlock()+1)
	for i := range last {
		last[i] = int32(n)
	}
	for i := n - 1; i >= 0; i-- {
		blk := tr.Block(i)
		keys[i] = uint64(last[blk])<<32 | uint64(blk)
		last[blk] = int32(i)
	}
	return &OPTPlan{tr: tr, keys: keys}, nil
}

// Trace returns the trace the plan was built from.
func (p *OPTPlan) Trace() *trace.Trace { return p.tr }

// optCursor is one run of an OPTPlan: Belady's choice at a capacity the
// driver may change between references. It must be fed the plan's trace in
// order, one Access per position, and panics on anything else — its
// next-use keys would be wrong. Lowering the capacity evicts the overflow
// at once; because a box only opens on a miss, that is the same victim
// sequence as evicting down to the new capacity on the miss itself.
type optCursor struct {
	plan     *OPTPlan
	curNext  []int32 // live heap key's nextUse for resident block b; optNever when absent
	h        optHeap
	pos      int // the next plan position to be fed
	size     int64
	capacity int64
	misses   int64
}

// cursor starts a run of the plan. The heap is allocated at the trace's
// length, which bounds its population (one push per reference), so a run
// makes the same two allocations whatever its box count.
func (p *OPTPlan) cursor() *optCursor {
	curNext := make([]int32, p.tr.MaxBlock()+1)
	for i := range curNext {
		curNext[i] = optNever
	}
	return &optCursor{plan: p, curNext: curNext, h: make(optHeap, 0, p.tr.Len())}
}

// Contains reports whether block is resident.
func (c *optCursor) Contains(block int64) bool {
	return block >= 0 && block < int64(len(c.curNext)) && c.curNext[block] != optNever
}

// Access serves the plan's next reference, which must be block, evicting
// the farthest-next-use resident block on a miss at capacity. Either way
// the block's next-use key is refreshed.
//
//lint:hotpath
func (c *optCursor) Access(block int64) bool {
	keys := c.plan.keys
	if c.pos == len(keys) || int64(uint32(keys[c.pos])) != block {
		c.diverged(block)
	}
	key := keys[c.pos]
	c.pos++
	hit := c.curNext[block] != optNever
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

// diverged panics: the fed stream is not the plan's trace.
func (c *optCursor) diverged(block int64) {
	if c.pos == len(c.plan.keys) {
		//lint:ignore hotpath panic path: the run is a caller bug, one allocation to say why is fine
		panic(fmt.Sprintf("paging: OPT replay fed block %d past the end of its %d-reference plan", block, c.pos))
	}
	//lint:ignore hotpath panic path: the run is a caller bug, one allocation to say why is fine
	panic(fmt.Sprintf("paging: OPT replay fed block %d at reference %d, where its plan has block %d", block, c.pos, c.plan.tr.Block(c.pos)))
}

// evict drops the resident block with the farthest next use, skipping
// stale heap entries.
func (c *optCursor) evict() {
	for {
		top := c.h.pop()
		b := int64(uint32(top))
		if c.curNext[b] == int32(top>>32) {
			c.curNext[b] = optNever
			c.size--
			return
		}
	}
}

// SetCapacity resizes the cache, evicting farthest-next-use blocks if it
// shrank.
func (c *optCursor) SetCapacity(capacity int64) error {
	if capacity < 1 {
		return fmt.Errorf("paging: OPT capacity %d < 1", capacity)
	}
	c.capacity = capacity
	for c.size > capacity {
		c.evict()
	}
	return nil
}

// Reserve is a no-op: the plan fixes the block universe.
func (c *optCursor) Reserve(int64) {}

// Misses reports the number of accesses that required a fetch.
func (c *optCursor) Misses() int64 { return c.misses }

// optHeap is a max-heap of packed (nextUse<<32 | block) keys.
type optHeap []uint64

//lint:hotpath
func (h *optHeap) push(x uint64) {
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

//lint:hotpath
func (h *optHeap) pop() uint64 {
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
