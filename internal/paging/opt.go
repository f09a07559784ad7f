package paging

import (
	"fmt"

	"repro/internal/trace"
)

// This file implements Belady's OPT (farthest-in-future) replacement for a
// fixed-size cache. OPT gives the offline-optimal miss count, which the
// DAM-validation experiment uses to confirm that LRU's constant factor on
// our traces is benign (the classical 2-competitiveness with capacity
// augmentation shows up clearly).
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

// RunOPTFixed replays tr through Belady's optimal policy with a fixed
// capacity and returns the miss count.
func RunOPTFixed(tr *trace.Trace, capacity int64) (int64, error) {
	if capacity < 1 {
		return 0, fmt.Errorf("paging: OPT capacity %d < 1", capacity)
	}
	n := tr.Len()
	if n == 0 {
		return 0, nil
	}
	nextUse, err := optNextUse(tr)
	if err != nil {
		return 0, err
	}

	// curNext[b] = the live heap key's nextUse for resident block b, or
	// optNever when b is absent.
	curNext := make([]int32, tr.MaxBlock()+1)
	for i := range curNext {
		curNext[i] = optNever
	}
	var h optHeap
	var size, misses int64
	for i := 0; i < n; i++ {
		blk := tr.Block(i)
		nu := nextUse[i]
		key := uint64(uint32(nu))<<32 | uint64(uint32(blk))
		if curNext[blk] != optNever {
			curNext[blk] = nu
			h.push(key)
			continue
		}
		misses++
		if size >= capacity {
			// Evict the resident block with the farthest valid next use,
			// skipping stale heap entries.
			for {
				if len(h) == 0 {
					return 0, fmt.Errorf("paging: OPT heap exhausted with %d resident", size)
				}
				top := h.pop()
				b := int64(uint32(top))
				if curNext[b] != int32(top>>32) {
					continue // stale entry
				}
				curNext[b] = optNever
				size--
				break
			}
		}
		curNext[blk] = nu
		size++
		h.push(key)
	}
	return misses, nil
}
