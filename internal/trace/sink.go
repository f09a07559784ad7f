package trace

// Sink consumes a block-reference stream as it is generated. It is the
// streaming half of the trace pipeline: algorithm generators
// (internal/matrix, internal/dp, internal/fft, internal/gep,
// internal/sorting, internal/regular) emit into a Sink, and the consumer
// decides whether to materialize (Builder), replay online against a cache
// (internal/paging's streaming kernels), or just count. Streaming keeps
// memory bounded by the consumer's state — O(distinct blocks) for the
// paging kernels — instead of the Θ(T(n)) references a materialized
// Trace costs, which is what caps problem sizes on the materialized path.
//
// The contract mirrors Builder exactly (Builder is the canonical Sink):
// Access references one block, AccessRange references blocks
// [lo, lo+count) in ascending order, and EndLeaf marks the most recent
// access as completing a base case. Generators must emit the identical
// access sequence whichever Sink they are given; that equivalence is what
// keeps streaming replays byte-identical to materialized ones.
type Sink interface {
	// Access appends a reference to block (>= 0).
	Access(block int64)
	// AccessRange appends references to blocks [lo, lo+count).
	AccessRange(lo, count int64)
	// EndLeaf marks the most recent access as completing a base case.
	EndLeaf()
}

// Builder is the materializing Sink.
var _ Sink = (*Builder)(nil)

// CountingSink tallies the stream without storing it: reference and leaf
// counts plus the largest block seen. A full-size workload can be
// measured in O(1) memory (mmtrace -stream -stats uses it).
type CountingSink struct {
	Refs     int64
	Leaves   int64
	MaxBlock int64
	markedAt int64 // Refs value at the last EndLeaf, for idempotency
}

// Access counts one reference.
//
//lint:hotpath
func (c *CountingSink) Access(block int64) {
	c.Refs++
	if block > c.MaxBlock {
		c.MaxBlock = block
	}
}

// AccessRange counts count references ending at lo+count-1.
//
//lint:hotpath
func (c *CountingSink) AccessRange(lo, count int64) {
	if count <= 0 {
		return
	}
	c.Refs += count
	if hi := lo + count - 1; hi > c.MaxBlock {
		c.MaxBlock = hi
	}
}

// EndLeaf counts one base case. Like Builder it panics before any access
// and is idempotent per access, so generators behave identically on every
// sink.
//
//lint:hotpath
func (c *CountingSink) EndLeaf() {
	if c.Refs == 0 {
		panic("trace: EndLeaf before any access")
	}
	if c.markedAt == c.Refs {
		return
	}
	c.markedAt = c.Refs
	c.Leaves++
}

// Stopper is the optional early-stop half of a Sink. A sink that has
// consumed all the stream it will ever serve (a finite square sequence that
// ran out of boxes, a stream that hit an error) reports Stopped() == true, and the replay loops below
// halt instead of pushing the rest of the stream into a sink that ignores
// it. Generators may honor it too (regular.EmitSynthetic does); a sink
// without the method is simply replayed to the end, exactly as before.
type Stopper interface {
	// Stopped reports that every further emission would be ignored.
	Stopped() bool
}

// Replay emits a materialized trace into s, reproducing the exact access
// and leaf sequence the trace was built from. It bridges the two halves of
// the pipeline: anything materialized can feed any streaming consumer. If s
// implements Stopper, the replay halts as soon as Stopped reports true.
//
//lint:hotpath
func Replay(tr *Trace, s Sink) {
	ReplayRange(tr, s, 0, tr.Len())
}

// ReplayRange emits the subsequence [lo, hi) of tr into s. Leaf markers
// inside the range are preserved. It panics on an out-of-range window (a
// caller bug, matching the slice convention). If s implements Stopper, the
// replay halts at the first index where Stopped reports true, so a sink
// that is done consuming (a box replay whose finite profile ran out)
// costs O(served) rather than O(trace).
//
//lint:hotpath
func ReplayRange(tr *Trace, s Sink, lo, hi int) {
	if lo < 0 || hi < lo || hi > tr.Len() {
		panic("trace: ReplayRange window out of range")
	}
	if st, ok := s.(Stopper); ok {
		for i := lo; i < hi; i++ {
			if st.Stopped() {
				return
			}
			s.Access(tr.blocks[i])
			if tr.leafAt(i) {
				s.EndLeaf()
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		s.Access(tr.blocks[i])
		if tr.leafAt(i) {
			s.EndLeaf()
		}
	}
}

// ReplayRepeat emits reps copies of tr into s, shifting each repetition's
// blocks by r*stride. With stride 0 it is the same-data repetition
// (RepeatTrace); with stride = MaxBlock()+1 each repetition lands in a
// fresh address range (RepeatTraceFresh) — but unlike those helpers the
// repetition is never materialized, so memory stays bounded by the base
// trace regardless of reps. A Stopper sink halts the repetition early.
//
//lint:hotpath
func ReplayRepeat(tr *Trace, s Sink, reps int, stride int64) {
	st, _ := s.(Stopper)
	for r := 0; r < reps; r++ {
		if st != nil && st.Stopped() {
			return
		}
		shift := int64(r) * stride
		if shift == 0 {
			Replay(tr, s)
			continue
		}
		replayShifted(tr, s, st, shift)
	}
}

// replayShifted emits one full pass of tr into s with every block shifted.
// Shifting in the loop, rather than wrapping s in a shifting adapter boxed
// into the Sink interface once per repetition, keeps the repetition
// allocation-free. st is s's Stopper (nil when s has none).
func replayShifted(tr *Trace, s Sink, st Stopper, shift int64) {
	if st != nil {
		for i := range tr.blocks {
			if st.Stopped() {
				return
			}
			s.Access(tr.blocks[i] + shift)
			if tr.leafAt(i) {
				s.EndLeaf()
			}
		}
		return
	}
	for i := range tr.blocks {
		s.Access(tr.blocks[i] + shift)
		if tr.leafAt(i) {
			s.EndLeaf()
		}
	}
}
