// Package paging implements the memory/caching substrates that traces are
// replayed against.
//
// One box-replay driver, BoxReplay (replay.go), serves every measurement
// against a memory profile: a box of size X grants X I/Os at capacity X.
// It runs in two shapes that matter for the paper:
//
//  1. Square semantics — the cache-adaptive model's discretisation. Prior
//     work (Bender et al. 2014) shows that, w.l.o.g. up to constant
//     factors, one may assume cache is cleared at the start of each square,
//     after which a square of size X serves exactly X distinct blocks: each
//     first touch of a block within a square is one I/O (one unit of time),
//     repeat touches are free, and the square ends after X I/Os. SquareRun,
//     SquareRunFrom and ServedRepeat are its wrappers.
//
//  2. Live replacement kernels (LRU, FIFO, ARC, 2Q from the registry, and
//     Belady's OPT over a precomputed plan) whose state survives box
//     boundaries while the capacity follows the profile. At a fixed
//     capacity (RunPolicyFixed) they are the classical DAM-model machinery,
//     used to validate the matrix-multiply I/O complexity (experiment E11)
//     and the smoothness curves (E13).
package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// BoxStat records what one memory-profile box accomplished during a box
// replay.
type BoxStat struct {
	Size   int64 // box size in blocks (= its duration in I/Os)
	IOs    int64 // I/Os actually consumed (= distinct blocks fetched; < Size only for the final box)
	Leaves int64 // base cases completed within the box
	Refs   int64 // total references served (hits + misses)
}

// SquareRun replays tr against boxes drawn from src under the CA model's
// square semantics and returns per-box statistics. The run ends when the
// trace is exhausted; the final box is typically partial. maxBoxes guards
// against pathological stalls (0 = unbounded). On error the ledger holds
// the boxes closed before it.
func SquareRun(tr *trace.Trace, src profile.Source, maxBoxes int64) ([]BoxStat, error) {
	var stats []BoxStat
	d := newBoxReplay(nil, src, maxBoxes, func(s BoxStat) { stats = append(stats, s) })
	d.Reserve(tr.MaxBlock())
	trace.Replay(tr, d)
	err := d.Finish() // closes the last box: read stats after it
	return stats, err
}

// SquareRunFrom replays the suffix of tr starting at reference startIdx
// against the finite square sequence boxes, and returns the index of the
// first reference NOT served (tr.Len() if the boxes finish the trace).
// This is the primitive behind the No-Catch-up Lemma check (Lemma 2):
// if boxes started at r_i finish at r_j, then started at any r_{i'} with
// i' < i they finish at some r_{j'} with j' <= j.
func SquareRunFrom(tr *trace.Trace, startIdx int, boxes []int64) (int, error) {
	if startIdx < 0 || startIdx > tr.Len() {
		return 0, fmt.Errorf("paging: start index %d out of range", startIdx)
	}
	if len(boxes) == 0 {
		return startIdx, nil
	}
	src, _ := profile.NewBoxesSource(boxes) // cannot fail: boxes is non-empty
	suffix := func(s trace.Sink) error {
		trace.ReplayRange(tr, s, startIdx, tr.Len())
		return nil
	}
	served, err := ServedRepeat(suffix, tr.MaxBlock(), src, int64(len(boxes)), 1)
	if err != nil {
		return 0, err
	}
	return startIdx + int(served), nil
}

// ServedRepeat counts the references served when reps back-to-back
// repetitions of a workload, each on fresh data, are replayed under square
// semantics against the first nBoxes boxes of src; the references after
// the last box ends are unserved. emit replays the base workload (block
// IDs in [0, maxBlock]) and must produce the same sequence on every call;
// the repeated stream is never materialised. The first box is validated
// before anything is emitted, so an invalid leading box is reported even
// for an empty workload; later boxes when the stream reaches them. On an
// invalid box the count served before it is returned with the error.
//
// The result equals replaying the repetitions at block shift r·stride for
// any stride > maxBlock (trace.ReplayRepeat), but instead of relocating
// addresses the replay bumps its residency epoch between repetitions,
// without closing the open box. That is exact: a shifted repetition
// touches only blocks no earlier repetition touched, so none of them can
// be resident, which is precisely what a fresh epoch says. Residency stays
// O(maxBlock) whatever reps is.
func ServedRepeat(emit func(trace.Sink) error, maxBlock int64, src profile.Source, nBoxes int64, reps int) (int64, error) {
	if nBoxes <= 0 {
		return 0, nil
	}
	d := newBoxReplay(nil, src, nBoxes, nil)
	d.Reserve(maxBlock)
	d.openBox()
	for r := 0; r < reps && !d.Stopped(); r++ {
		if r > 0 {
			d.epoch++ // fresh data: nothing from earlier repetitions is resident
		}
		if err := emit(d); err != nil {
			return 0, err
		}
	}
	return d.served()
}

// ServedEmitRepeatParallel is ServedRepeat under its former signature:
// refsPerRep and shards are ignored, and stride must exceed maxBlock (the
// fresh-address repetitions ServedRepeat counts).
//
// Deprecated: use ServedRepeat. The replay is serial; the sharded path
// this once selected has been removed.
func ServedEmitRepeatParallel(emit func(trace.Sink) error, refsPerRep, maxBlock int64, src profile.Source, nBoxes int64, reps int, stride int64, shards int) (int64, error) {
	if stride <= maxBlock {
		return 0, fmt.Errorf("paging: stride %d overlaps the base workload's blocks [0, %d]; only fresh-address repetitions are supported", stride, maxBlock)
	}
	return ServedRepeat(emit, maxBlock, src, nBoxes, reps)
}

// DefaultShards returns 1.
//
// Deprecated: replay is no longer sharded, so there is no shard count to
// pick.
func DefaultShards() int { return 1 }

// TotalLeaves sums leaf completions over box stats.
func TotalLeaves(stats []BoxStat) int64 {
	var n int64
	for _, s := range stats {
		n += s.Leaves
	}
	return n
}

// TotalIOs sums I/Os over box stats.
func TotalIOs(stats []BoxStat) int64 {
	var n int64
	for _, s := range stats {
		n += s.IOs
	}
	return n
}
