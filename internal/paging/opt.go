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
// an indexed max-heap over the resident blocks only: one packed uint64 key
// per resident block (nextUse in the high 32 bits, block in the low 32),
// with a dense slot array giving each block's heap index — no interface
// boxing, no per-entry allocation, no stale entries. A hit moves the
// block's key in place (its next use only moves later, so the key rises
// and sifts up), a miss at capacity pops the root, and a shrink pops down
// to the new capacity. The block sits in the low bits, so keys are unique
// and the root is the one resident block with the farthest next use, ties
// broken by the larger block ID — the same victim a heap of every
// reference's key yields once its stale entries are skipped. Ties on
// nextUse can only occur among never-used-again blocks, where the
// eviction choice cannot change the miss count anyway.

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
	h        residentHeap
	pos      int // the next plan position to be fed
	capacity int64
	misses   int64
}

// cursor starts a run of the plan. The heap holds at most one key per
// block, so it is allocated at the block universe and never grows: a run
// makes the same two allocations whatever its box count.
func (p *OPTPlan) cursor() *optCursor {
	return &optCursor{plan: p, h: newResidentHeap(p.tr.MaxBlock() + 1)}
}

// Contains reports whether block is resident.
func (c *optCursor) Contains(block int64) bool {
	return block >= 0 && block < int64(len(c.h.slot)) && c.h.slot[block] >= 0
}

// Access serves the plan's next reference, which must be block, evicting
// the farthest-next-use resident block on a miss at capacity. Either way
// the block's key becomes its next use after this reference.
//
//lint:hotpath
func (c *optCursor) Access(block int64) bool {
	keys := c.plan.keys
	if c.pos == len(keys) || int64(uint32(keys[c.pos])) != block {
		c.diverged(block)
	}
	key := keys[c.pos]
	c.pos++
	if i := c.h.slot[block]; i >= 0 {
		c.h.up(int(i), key) // its next use only moves later: the key rises
		return true
	}
	c.misses++
	if int64(len(c.h.keys)) >= c.capacity {
		c.h.popMax()
	}
	c.h.push(key)
	return false
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

// SetCapacity resizes the cache, evicting farthest-next-use blocks if it
// shrank.
func (c *optCursor) SetCapacity(capacity int64) error {
	if capacity < 1 {
		return fmt.Errorf("paging: OPT capacity %d < 1", capacity)
	}
	c.capacity = capacity
	for int64(len(c.h.keys)) > capacity {
		c.h.popMax()
	}
	return nil
}

// Reserve is a no-op: the plan fixes the block universe.
func (c *optCursor) Reserve(int64) {}

// Misses reports the number of accesses that required a fetch.
func (c *optCursor) Misses() int64 { return c.misses }

// residentHeap is an indexed max-heap of the resident blocks' packed
// (nextUse<<32 | block) keys: keys is in heap order, and slot[b] is block
// b's index in keys, or -1 when b is not resident.
type residentHeap struct {
	keys []uint64
	slot []int32
}

// newResidentHeap returns an empty heap over blocks [0, universe), with
// room for every one of them resident at once.
func newResidentHeap(universe int64) residentHeap {
	slot := make([]int32, universe)
	for i := range slot {
		slot[i] = -1
	}
	return residentHeap{keys: make([]uint64, 0, universe), slot: slot}
}

// push inserts the key of a block that is not resident.
//
//lint:hotpath
func (h *residentHeap) push(key uint64) {
	i := len(h.keys)
	h.keys = append(h.keys, key)
	h.up(i, key)
}

// popMax removes the root — the resident block with the farthest next
// use — and marks its block absent.
//
//lint:hotpath
func (h *residentHeap) popMax() {
	s := h.keys
	h.slot[uint32(s[0])] = -1
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	h.keys = s
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r] > s[c] {
			c = r
		}
		if s[c] <= last {
			break
		}
		s[i] = s[c]
		h.slot[uint32(s[i])] = int32(i)
		i = c
	}
	s[i] = last
	h.slot[uint32(last)] = int32(i)
}

// up places key at index i or above, moving smaller ancestors down: it
// inserts at the end, or replaces the key at i with one no smaller.
//
//lint:hotpath
func (h *residentHeap) up(i int, key uint64) {
	s := h.keys
	for i > 0 {
		p := (i - 1) / 2
		if s[p] >= key {
			break
		}
		s[i] = s[p]
		h.slot[uint32(s[i])] = int32(i)
		i = p
	}
	s[i] = key
	h.slot[uint32(key)] = int32(i)
}
