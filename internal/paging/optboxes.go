package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// OPTPlan is the clairvoyant box replay's precomputation: a trace and its
// next-use table, built once in one backward pass. Run replays the plan
// through Belady's farthest-in-future choice while the capacity follows
// boxes drawn from a source, mirroring PolicyStream's accounting: entering
// a box of size X resizes the cache to X (evicting the farthest-next-use
// overflow) and grants X misses of budget. It is the clairvoyant baseline
// for the adaptivity-gap-by-policy experiment.
//
// With a *changing* capacity, greedy farthest-in-future is a natural
// baseline rather than a provably optimal schedule — Belady's exchange
// argument needs a fixed capacity. Every online policy still replays
// against strictly less information, so the baseline is an honest floor in
// practice on the repository's traces.
//
// A plan is never written after NewOPTPlan: Run keeps its state in locals,
// so one plan may be run from any number of goroutines at once, each
// against its own box source.
type OPTPlan struct {
	tr      *trace.Trace
	nextUse []int32
}

// NewOPTPlan precomputes tr's next-use table. The trace must not be
// mutated while the plan is in use.
func NewOPTPlan(tr *trace.Trace) (*OPTPlan, error) {
	nextUse, err := optNextUse(tr)
	if err != nil {
		return nil, err
	}
	return &OPTPlan{tr: tr, nextUse: nextUse}, nil
}

// optNextUse returns nextUse[i] = the next position after i referencing the
// same block, or tr.Len() if the block is never referenced again.
func optNextUse(tr *trace.Trace) ([]int32, error) {
	n := tr.Len()
	if int64(n) >= 1<<31 || tr.MaxBlock() >= 1<<31 {
		return nil, fmt.Errorf("paging: OPT index overflow (%d refs, max block %d)", n, tr.MaxBlock())
	}
	nextUse := make([]int32, n)
	if n == 0 {
		return nextUse, nil
	}
	last := make([]int32, tr.MaxBlock()+1)
	for i := range last {
		last[i] = optNever
	}
	for i := n - 1; i >= 0; i-- {
		blk := tr.Block(i)
		if j := last[blk]; j != optNever {
			nextUse[i] = j
		} else {
			nextUse[i] = int32(n)
		}
		last[blk] = int32(i)
	}
	return nextUse, nil
}

// Run replays the plan against boxes drawn from src, passing each box to
// onBox as it closes, in box order. A base case completed at position i is
// credited to the box that serves position i, as PolicyStream.EndLeaf
// does. maxBoxes guards against pathological stalls (0 = unbounded); an
// empty trace closes no box.
//
// The mechanics are RunOPTFixed's: a packed max-heap with lazy stale
// invalidation over dense arrays. The heap is allocated at the trace's
// length, which bounds its population (one push per reference), so a run
// makes the same two allocations whatever its box count.
func (p *OPTPlan) Run(src profile.Source, maxBoxes int64, onBox func(BoxStat)) error {
	tr, nextUse := p.tr, p.nextUse
	n := tr.Len()
	if n == 0 {
		return nil
	}

	// curNext[b] = the live heap key's nextUse for resident block b, or
	// optNever when b is absent.
	curNext := make([]int32, tr.MaxBlock()+1)
	for i := range curNext {
		curNext[i] = optNever
	}
	h := make(optHeap, 0, n)
	var size, boxes int64
	cur := BoxStat{Size: src.Next()}
	if cur.Size < 1 {
		return fmt.Errorf("paging: box source produced size %d", cur.Size)
	}

	for i := 0; i < n; i++ {
		blk := tr.Block(i)
		nu := nextUse[i]
		key := uint64(uint32(nu))<<32 | uint64(uint32(blk))
		if curNext[blk] == optNever {
			// Miss: needs an I/O from the current box's budget.
			if cur.IOs == cur.Size {
				// Budget exhausted: this reference belongs to the next box.
				onBox(cur)
				boxes++
				if maxBoxes > 0 && boxes >= maxBoxes {
					return fmt.Errorf("paging: run exceeded %d boxes", maxBoxes)
				}
				cur = BoxStat{Size: src.Next()}
				if cur.Size < 1 {
					return fmt.Errorf("paging: box source produced size %d", cur.Size)
				}
			}
			// Evict down to the box's capacity, farthest next use first,
			// skipping stale heap entries.
			for size >= cur.Size {
				if len(h) == 0 {
					return fmt.Errorf("paging: OPT heap exhausted with %d resident", size)
				}
				top := h.pop()
				b := int64(uint32(top))
				if curNext[b] != int32(top>>32) {
					continue // stale entry
				}
				curNext[b] = optNever
				size--
			}
			size++
			cur.IOs++
		}
		// A hit is free against the box; either way the block's next-use
		// key is refreshed.
		curNext[blk] = nu
		h.push(key)
		cur.Refs++
		if tr.EndsLeaf(i) {
			cur.Leaves++
		}
	}
	onBox(cur)
	return nil
}
