package paging

import (
	"fmt"

	"repro/internal/trace"
)

// This file computes whole fault curves for the stack policies in one pass
// (Mattson, Gecsei, Slutz & Traiger 1970). LRU and OPT have the inclusion
// property: the contents of a cache of capacity M are always the top M
// entries of one priority stack, so a reference hits at capacity M exactly
// when its block sits at depth <= M. One walk over the trace that keeps the
// stack and a histogram of hit depths therefore yields the miss count at
// every capacity at once.
//
// The stack is kept only to depth hi. Its update moves entries between
// adjacent slots and decides slot j from slots 0..j alone, so a stack cut
// at depth hi is exact for every capacity <= hi; a block found below it
// counts as a miss at every capacity in the curve, like a cold reference.
//
// The curves share no code with the per-capacity kernels (LRU, the OPT
// cursor), which is what lets E13 use each as a check on the other.

// IsStackPolicy reports whether name is a replay with the inclusion
// property — "lru" or "opt" — whose fault curve is therefore monotone in
// capacity and available from StackCurve.
func IsStackPolicy(name string) bool {
	return name == "lru" || name == OPTReplayName
}

// StackCurve returns the miss counts of the stack policy name ("lru" or
// "opt") replaying tr at every capacity in [lo, hi]: curve[M-lo] equals
// RunPolicyFixed(name, tr, M).
//
// On a reference to x at depth d (1-based), x moves to the top and the
// entries that were above it each move down one slot, with the entry
// pushed out of the last of them filling the slot x vacated. For LRU that
// is a plain shift. OPT's stack orders by next use (Belady's MIN as a stack
// algorithm): a carry starts as the old top, and at each slot the entry
// with the nearer next use keeps the slot while the farther one becomes the
// carry; on a tie the incumbent stays. OPT's miss count does not depend on
// how farthest-in-future ties are broken, so any tie rule gives the same
// curve.
func StackCurve(name string, tr *trace.Trace, lo, hi int64) ([]int64, error) {
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("paging: stack curve range [%d, %d] invalid (need 1 <= lo <= hi)", lo, hi)
	}
	n := tr.Len()
	if int64(n) >= 1<<31 || tr.MaxBlock() >= 1<<31 {
		return nil, fmt.Errorf("paging: stack curve index overflow (%d refs, max block %d)", n, tr.MaxBlock())
	}
	var next []int32 // nil selects LRU's plain shift
	switch name {
	case "lru":
	case OPTReplayName:
		next = nextUses(tr)
	default:
		return nil, fmt.Errorf("paging: %q is not a stack policy (have lru, opt)", name)
	}
	hist, beyond := stackDepths(tr, hi, next)
	// faults(M) = beyond + Σ_{d > M} hist[d], accumulated from hi down.
	curve := make([]int64, hi-lo+1)
	faults := beyond
	for m := hi; m >= lo; m-- {
		curve[m-lo] = faults
		faults += hist[m]
	}
	return curve, nil
}

// stackDepths replays tr on a stack of depth hi and returns hist, where
// hist[d] counts references found at depth d (1..hi), and beyond, the count
// of the rest. With next nil the stack is LRU's; otherwise it is Belady's
// MIN stack with next[i] the position of the next reference to the block
// at i.
func stackDepths(tr *trace.Trace, hi int64, next []int32) (hist []int64, beyond int64) {
	var pri []int32 // pri[b]: next use of b after its latest reference
	if next != nil {
		pri = make([]int32, tr.MaxBlock()+1)
	}
	hist = make([]int64, hi+1)
	stack := make([]int32, 0, hi)
	for i := 0; i < tr.Len(); i++ {
		x := int32(tr.Block(i))
		if pri != nil {
			pri[x] = next[i]
		}
		// x takes slot 0 and the old top becomes the carry; below that,
		// LRU's carry always takes the slot, MIN's only when it is needed
		// sooner than the incumbent.
		carry, d := x, -1
		for j, y := range stack {
			if y == x {
				stack[j] = carry
				d = j
				break
			}
			if j == 0 || pri == nil || pri[carry] < pri[y] {
				stack[j], carry = carry, y
			}
		}
		if d >= 0 {
			hist[d+1]++
			continue
		}
		beyond++
		if int64(len(stack)) < hi {
			stack = append(stack, carry)
		}
	}
	return hist, beyond
}

// nextUses returns, for each position of tr, the position of the next
// reference to the same block, or tr.Len() if there is none.
func nextUses(tr *trace.Trace) []int32 {
	n := tr.Len()
	next := make([]int32, n)
	seen := make([]int32, tr.MaxBlock()+1)
	for b := range seen {
		seen[b] = int32(n)
	}
	for i := n - 1; i >= 0; i-- {
		b := tr.Block(i)
		next[i] = seen[b]
		seen[b] = int32(i)
	}
	return next
}
