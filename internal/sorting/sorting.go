// Package sorting traces two-way merge sort — the paper's footnote-3
// example of the a = b boundary: merge sort is (2,2,1)-regular in blocks
// (two half-size subproblems plus a linear merge), and with a = b, c = 1 no
// algorithm can be optimally cache-adaptive because such algorithms are
// already a Θ(log(M/B)) factor from optimal in the DAM model. The paper
// explicitly leaves a = b smoothing for future work; the traced variant
// here supplies the executable boundary case for experiment A5. The
// package's tests check a numeric twin of the same recursion against the
// standard library's sort.
package sorting

import (
	"fmt"
	"math"

	"repro/internal/profile"
	"repro/internal/trace"
)

// sortBaseLen is the traced recursion's cutoff in words.
const sortBaseLen = 8

// TraceMergeSort emits the block trace of merge-sorting n words (power of
// two, >= sortBaseLen) with blockWords words per block. The array lives at
// word offset 0 and the merge buffer at offset n; a subproblem on
// [off, off+m) touches its ⌈m/B⌉ array blocks and, when merging, the
// matching buffer blocks — the (2,2,1) shape in blocks.
func TraceMergeSort(n int, blockWords int64) (*trace.Trace, error) {
	b := &trace.Builder{}
	if err := EmitMergeSort(n, blockWords, b); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// EmitMergeSort streams the merge-sort trace into s without materializing
// it.
func EmitMergeSort(n int, blockWords int64, s trace.Sink) error {
	if n < sortBaseLen || n&(n-1) != 0 {
		return fmt.Errorf("sorting: traced sort needs power-of-two length >= %d, got %d", sortBaseLen, n)
	}
	if blockWords < 1 {
		return fmt.Errorf("sorting: block size %d < 1", blockWords)
	}
	g := &sortTraceGen{s: s, bw: blockWords, bufBase: int64(n)}
	g.rec(0, int64(n))
	return nil
}

type sortTraceGen struct {
	s       trace.Sink
	bw      int64
	bufBase int64
}

func (g *sortTraceGen) touch(off, words int64) {
	first := off / g.bw
	last := (off + words - 1) / g.bw
	g.s.AccessRange(first, last-first+1)
}

func (g *sortTraceGen) rec(off, m int64) {
	if m <= sortBaseLen {
		g.touch(off, m)
		g.s.EndLeaf()
		return
	}
	h := m / 2
	g.rec(off, h)
	g.rec(off+h, h)
	// The merge: read both halves, write the buffer, copy back.
	g.touch(off, m)
	g.touch(g.bufBase+off, m)
	g.touch(off, m)
}

// WorstCaseProfile builds the adversarial profile matched to
// TraceMergeSort, Figure-1 style: recursively two copies of the half-size
// profile followed by one box the size of a merge's distinct footprint
// (array chunk + buffer chunk = 2·⌈m/B⌉ blocks); base cases get a box of
// their ⌈m/B⌉-block footprint. It is the first 2n/base - 1 boxes of a
// binary odometer stream.
func WorstCaseProfile(n int, blockWords int64) (*profile.SquareProfile, error) {
	if n < sortBaseLen || n&(n-1) != 0 {
		return nil, fmt.Errorf("sorting: profile needs power-of-two length >= %d, got %d", sortBaseLen, n)
	}
	if blockWords < 1 {
		return nil, fmt.Errorf("sorting: block size %d < 1", blockWords)
	}
	blocks := func(words int64) int64 { return (words-1)/blockWords + 1 } // ⌈words/B⌉
	closer := func(level int) (int64, bool) {
		if sortBaseLen > (math.MaxInt64/2)>>level {
			return 0, false // 2·m, m = base·2^level, overflows int64
		}
		return 2 * blocks(sortBaseLen<<level), true
	}
	src, err := profile.NewOdometerSource(2, blocks(sortBaseLen), closer)
	if err != nil {
		return nil, err
	}
	return src.Prefix(2*n/sortBaseLen - 1), nil
}
