// Package paging implements the memory/caching substrates that traces are
// replayed against.
//
// Two substrates matter for the paper:
//
//  1. SquareRun — the cache-adaptive model's square-profile semantics.
//     Prior work (Bender et al. 2014) shows that, w.l.o.g. up to constant
//     factors, one may assume cache is cleared at the start of each square,
//     after which a square of size X serves exactly X distinct blocks: each
//     first touch of a block within a square is one I/O (one unit of time),
//     repeat touches are free, and the square ends after X I/Os.
//
//  2. LRU / FIFO / OPT page replacement with fixed or dynamically changing
//     capacity — the classical DAM-model machinery, used to validate the
//     matrix-multiply I/O complexity (experiment E11) and to sanity-check
//     that the square semantics above are a faithful constant-factor proxy.
package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// BoxStat records what one memory-profile box accomplished during a square
// run.
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
//
// It is a materialized-trace wrapper around SquareStream (stream.go); the
// two paths share one implementation, so streamed runs are byte-identical
// to materialized ones.
func SquareRun(tr *trace.Trace, src profile.Source, maxBoxes int64) ([]BoxStat, error) {
	var stats []BoxStat
	q := NewSquareStream(src, maxBoxes, func(s BoxStat) { stats = append(stats, s) })
	q.Reserve(tr.MaxBlock())
	trace.Replay(tr, q)
	err := q.Finish() // closes the last box: read stats after it
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
	f := NewSquareFinisher(boxes)
	f.Reserve(tr.MaxBlock())
	trace.ReplayRange(tr, f, startIdx, tr.Len())
	if err := f.Err(); err != nil {
		return 0, err
	}
	return startIdx + int(f.Served()), nil
}

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
