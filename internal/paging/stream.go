package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file is the streaming half of the square-profile substrate: the
// same CA-model semantics as SquareRun/SquareRunFrom, exposed as
// trace.Sink consumers so generators can replay directly into them without
// materializing the trace or a per-box ledger. SquareRun and SquareRunFrom
// (square.go) are reimplemented as thin wrappers that trace.Replay into
// these sinks, so the materialized and streaming paths share one
// implementation and cannot drift — which is what keeps streamed
// experiment tables byte-identical to materialized ones.

// SquareStream consumes a reference stream under square semantics against
// boxes drawn from a profile source. Feed it accesses (directly or via
// trace.Replay), then call Finish to close the last box. Each box is handed
// to the onBox callback as it closes, in box order, and is not kept: memory
// is O(max block ID), independent of stream length and box count.
type SquareStream struct {
	src      profile.Source
	maxBoxes int64
	onBox    func(BoxStat)
	boxes    int64   // boxes closed so far, for the maxBoxes guard
	resident []int64 // epoch-stamped residency: resident[b] == epoch means cached
	epoch    int64
	cur      BoxStat
	started  bool
	err      error
	markedAt int64 // cur.Refs total at the last EndLeaf (idempotency)
	refs     int64 // total refs across all boxes, for markedAt
}

// NewSquareStream returns a stream drawing box sizes from src and passing
// each closed box to onBox; maxBoxes guards against pathological stalls
// (0 = unbounded).
func NewSquareStream(src profile.Source, maxBoxes int64, onBox func(BoxStat)) *SquareStream {
	return &SquareStream{src: src, maxBoxes: maxBoxes, onBox: onBox}
}

// Reserve pre-sizes the residency array for block IDs up to maxBlock.
func (q *SquareStream) Reserve(maxBlock int64) { q.ensure(maxBlock) }

// Access serves one block reference under square semantics: first touch of
// a block within a box costs one I/O from the box budget; when the budget
// is exhausted a new box starts with a cleared cache.
//
//lint:hotpath
func (q *SquareStream) Access(block int64) {
	if q.err != nil {
		return
	}
	if !q.started {
		q.started = true
		q.cur = BoxStat{Size: q.src.Next()}
		if q.cur.Size < 1 {
			//lint:ignore hotpath error path: the stream is dead after this, one allocation to say why is fine
			q.err = fmt.Errorf("paging: box source produced size %d", q.cur.Size)
			return
		}
	}
	q.ensure(block)
	if q.resident[block] != q.epoch {
		// Miss: needs an I/O from the current box's budget.
		if q.cur.IOs == q.cur.Size {
			// Budget exhausted: this reference belongs to the next box.
			q.onBox(q.cur)
			q.boxes++
			if q.maxBoxes > 0 && q.boxes >= q.maxBoxes {
				//lint:ignore hotpath error path: the box guard tripping ends the run
				q.err = fmt.Errorf("paging: run exceeded %d boxes", q.maxBoxes)
				q.started = false
				return
			}
			q.epoch++
			q.cur = BoxStat{Size: q.src.Next()}
			if q.cur.Size < 1 {
				//lint:ignore hotpath error path: the stream is dead after this, one allocation to say why is fine
				q.err = fmt.Errorf("paging: box source produced size %d", q.cur.Size)
				q.started = false
				return
			}
		}
		q.resident[block] = q.epoch
		q.cur.IOs++
	}
	q.cur.Refs++
	q.refs++
}

// AccessRange serves blocks [lo, lo+count) in order.
func (q *SquareStream) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		q.Access(lo + i)
	}
}

// EndLeaf credits a base-case completion to the box that served the most
// recent access. Idempotent per access, matching trace.Builder. Once the
// stream has errored it is a no-op: the access the marker belongs to was
// never served (Access returns before counting references on the error
// paths), so there is no box to credit — panicking here would blame the
// generator for a profile/guard error, and crediting would mutate a stale
// box. The panic is reserved for the genuine structural bug of a marker
// before any access on a healthy stream.
func (q *SquareStream) EndLeaf() {
	if q.err != nil {
		return
	}
	if q.refs == 0 {
		panic("paging: EndLeaf before any access")
	}
	if q.markedAt == q.refs {
		return
	}
	q.markedAt = q.refs
	q.cur.Leaves++
}

// Stopped reports whether the stream has errored, so stopper-aware replays
// and generators stop feeding a stream that discards everything anyway.
func (q *SquareStream) Stopped() bool { return q.err != nil }

// Finish closes the final (typically partial) box, passing it to onBox, or
// returns the first error the stream hit. An untouched stream closes no
// box, matching SquareRun on an empty trace.
func (q *SquareStream) Finish() error {
	if q.err != nil {
		return q.err
	}
	if !q.started {
		return nil
	}
	q.started = false
	q.onBox(q.cur)
	return nil
}

func (q *SquareStream) ensure(block int64) {
	if block < int64(len(q.resident)) {
		return
	}
	n := int64(len(q.resident)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric residency growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]int64, n)
	copy(grown, q.resident)
	for i := len(q.resident); i < len(grown); i++ {
		grown[i] = -1
	}
	q.resident = grown
}

// SquareFinisher consumes a reference stream against a finite square
// sequence and reports how many references the boxes served — the
// streaming form of SquareRunFrom, and the primitive behind the
// No-Catch-up Lemma check and the repeated-multiply counts (ServedRepeat).
// Boxes are pulled lazily from a profile source, at most a fixed number of
// them, so a worst-case profile of any size is never materialised. Once
// the boxes are exhausted (or a box size is invalid) the remaining stream
// is ignored.
type SquareFinisher struct {
	src      profile.Source
	left     int64   // boxes remaining, including the current one
	resident []int64 // epoch-stamped, cleared per box via epoch bump
	epoch    int64
	size     int64 // current box size
	ios      int64
	served   int64
	done     bool
	err      error
}

// NewSquareFinisher returns a finisher over the given box sizes. The first
// box is validated eagerly so an invalid leading box is reported even for
// an empty stream, matching SquareRunFrom; later boxes are validated when
// the stream reaches them.
func NewSquareFinisher(boxes []int64) *SquareFinisher {
	if len(boxes) == 0 {
		return newSquareFinisher(nil, 0)
	}
	src, _ := profile.NewBoxesSource(boxes) // cannot fail: boxes is non-empty
	return newSquareFinisher(src, int64(len(boxes)))
}

// newSquareFinisher serves at most nBoxes boxes pulled from src, validating
// the first one eagerly.
func newSquareFinisher(src profile.Source, nBoxes int64) *SquareFinisher {
	// Epochs start at 1 so zero-filled residency means "not resident".
	f := &SquareFinisher{src: src, left: nBoxes, epoch: 1}
	if nBoxes <= 0 {
		f.done = true
		return f
	}
	f.size = src.Next()
	if f.size < 1 {
		f.err = fmt.Errorf("paging: box size %d invalid", f.size)
	}
	return f
}

// Reserve pre-sizes the residency array for block IDs up to maxBlock.
func (f *SquareFinisher) Reserve(maxBlock int64) { f.ensure(maxBlock) }

// Access serves one reference, advancing to the next box when the current
// budget is exhausted. References after the last box ends are unserved.
//
//lint:hotpath
func (f *SquareFinisher) Access(block int64) {
	if f.done || f.err != nil {
		return
	}
	f.ensure(block)
	if f.resident[block] == f.epoch {
		f.served++
		return
	}
	if f.ios == f.size {
		// Budget exhausted: this reference belongs to the next box.
		f.left--
		if f.left <= 0 {
			f.done = true
			return
		}
		f.size = f.src.Next()
		if f.size < 1 {
			//lint:ignore hotpath error path: an invalid box ends the run, one allocation to say why is fine
			f.err = fmt.Errorf("paging: box size %d invalid", f.size)
			return
		}
		// Fresh square: cache cleared.
		f.epoch++
		f.ios = 0
	}
	f.resident[block] = f.epoch
	f.ios++
	f.served++
}

// AccessRange serves blocks [lo, lo+count) in order.
func (f *SquareFinisher) AccessRange(lo, count int64) {
	for i := int64(0); i < count && !f.done && f.err == nil; i++ {
		f.Access(lo + i)
	}
}

// EndLeaf is a no-op: the finisher measures progress in references served,
// not base cases.
func (f *SquareFinisher) EndLeaf() {}

// Served reports how many stream references the boxes served so far.
func (f *SquareFinisher) Served() int64 { return f.served }

// Done reports whether the boxes are exhausted (further accesses ignored).
func (f *SquareFinisher) Done() bool { return f.done }

// Stopped reports whether further accesses would be ignored — the boxes ran
// out or a box size was invalid. Replay/ReplayRange/ReplayRepeat halt at
// this boundary instead of streaming the rest of the trace into a finisher
// that discards it, which turns the No-Catch-up sweep from quadratic into
// O(refs actually served) per start index.
func (f *SquareFinisher) Stopped() bool { return f.done || f.err != nil }

// Err reports the first invalid-box error, if any.
func (f *SquareFinisher) Err() error { return f.err }

func (f *SquareFinisher) ensure(block int64) {
	if block < int64(len(f.resident)) {
		return
	}
	n := int64(len(f.resident)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric residency growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]int64, n)
	copy(grown, f.resident)
	f.resident = grown
}

// ServedRepeat counts the references served when reps back-to-back
// repetitions of a workload, each on fresh data, are replayed against the
// first nBoxes boxes of src under finisher semantics. emit replays the
// base workload (block IDs in [0, maxBlock]) and must produce the same
// sequence on every call; the repeated stream is never materialised.
//
// The result equals replaying the repetitions at block shift r·stride for
// any stride > maxBlock (trace.ReplayRepeat into a SquareFinisher), but
// instead of relocating addresses the finisher bumps its residency epoch
// between repetitions, without closing the current box. That is exact: a
// shifted repetition touches only blocks no earlier repetition touched, so
// none of them can be resident, which is precisely what a fresh epoch
// says. Residency stays O(maxBlock) whatever reps is.
func ServedRepeat(emit func(trace.Sink) error, maxBlock int64, src profile.Source, nBoxes int64, reps int) (int64, error) {
	f := newSquareFinisher(src, nBoxes)
	f.Reserve(maxBlock)
	for r := 0; r < reps && !f.Stopped(); r++ {
		if r > 0 {
			f.epoch++ // fresh data: nothing from earlier repetitions is resident
		}
		if err := emit(f); err != nil {
			return 0, err
		}
	}
	return f.Served(), f.Err()
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

var (
	_ trace.Sink    = (*SquareStream)(nil)
	_ trace.Sink    = (*SquareFinisher)(nil)
	_ trace.Stopper = (*SquareStream)(nil)
	_ trace.Stopper = (*SquareFinisher)(nil)
)

// cacheAccessor is the shared surface of the policy caches (LRU, FIFO).
type cacheAccessor interface {
	Access(block int64) bool
}

// CacheSink adapts a policy cache into a trace.Sink so generators can
// stream straight into an LRU or FIFO replay (leaf markers are ignored —
// DAM-model replays measure I/Os, not progress).
type CacheSink struct {
	Cache cacheAccessor
}

// Access forwards the reference to the cache, discarding the hit flag.
//
//lint:hotpath
func (s CacheSink) Access(block int64) { s.Cache.Access(block) }

// AccessRange forwards blocks [lo, lo+count) in order.
func (s CacheSink) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		s.Cache.Access(lo + i)
	}
}

// EndLeaf is ignored.
func (s CacheSink) EndLeaf() {}

var _ trace.Sink = CacheSink{}
