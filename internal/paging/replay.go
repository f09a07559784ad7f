package paging

import (
	"errors"
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file is the one box-replay driver. Every measurement in the paper
// replays references against a box profile under one rule: a box of size
// X grants X I/Os at capacity X, one per miss, and the next box opens on
// the first miss after the budget is spent. What differs between replays
// is only who holds the cache across boxes:
//
//   - square semantics (no kernel): the cache is cleared at every box
//     boundary, so a box of size X serves exactly X distinct blocks no
//     matter who picks victims — the paper's discretisation, identical
//     for every policy;
//   - a registered kernel, replayed live: its state survives the
//     boundary, SetCapacity applies each new box size (evicting per the
//     policy on a shrink), and budget is spent per miss as the policy
//     replays it;
//   - OPT: Belady's farthest-in-future choice over a precomputed OPTPlan,
//     behind the same kernel surface.
//
// BoxReplay alone opens and closes boxes, spends budget, applies the box
// limit, credits base cases and finishes. Square residency is an
// epoch-stamped array inline in the driver, with the hit path as an early
// return: E9's repeated replay spends most of its time there.

// Reserved replay names: accepted wherever a policy name selects a
// box-profile replay, alongside the kernel registry (PolicyNames).
const (
	// SquareReplayName selects the cleared-cache square semantics — the
	// paper's upper-bound discretisation, identical for every policy.
	SquareReplayName = "square"
	// OPTReplayName selects Belady's farthest-in-future choice replayed
	// over an OPTPlan — the clairvoyant baseline.
	OPTReplayName = "opt"
)

// ReplayNames lists every name NewBoxReplay accepts: the registered
// kernels plus the reserved "opt" and "square" replays, sorted.
func ReplayNames() []string {
	names := PolicyNames()
	names = append(names, OPTReplayName, SquareReplayName)
	return names
}

// NeedsPlan reports whether the replay name needs the future of its
// stream: the "opt" replay is driven by an OPTPlan of the materialized
// trace, every other replay by the stream alone.
func NeedsPlan(name string) bool { return name == OPTReplayName }

// boxKernel is the cache a BoxReplay keeps across boxes: a registered
// ReplacementPolicy, or an OPT cursor over a plan.
type boxKernel interface {
	Contains(block int64) bool
	Access(block int64) bool
	SetCapacity(capacity int64) error
	Reserve(maxBlock int64)
	Misses() int64
}

// newBoxKernel resolves a replay name to the kernel that holds the cache
// across boxes: nil for "square" (the driver's own cleared cache), a cursor
// over plan for "opt", a fresh registered kernel otherwise.
func newBoxKernel(name string, plan *OPTPlan) (boxKernel, error) {
	switch name {
	case SquareReplayName:
		return nil, nil
	case OPTReplayName:
		if plan == nil {
			return nil, fmt.Errorf("paging: the %q replay needs an OPTPlan of its trace", name)
		}
		return plan.cursor(), nil
	}
	p, err := NewReplacementPolicy(name, 1)
	if err != nil {
		return nil, fmt.Errorf("paging: unknown replay policy %q (have %v)", name, ReplayNames())
	}
	return p, nil
}

// errBoxLimit is wrapped by the error a replay stops with when it would
// open a box past its limit. Stall-guarded runs report it; served-count
// callers (ServedRepeat, SquareRunFrom) read it as the end of their finite
// profile.
var errBoxLimit = errors.New("paging: box limit reached")

// boxLimitError is the box-limit error, wrapping errBoxLimit.
type boxLimitError struct{ limit int64 }

func (e *boxLimitError) Error() string { return fmt.Sprintf("paging: run exceeded %d boxes", e.limit) }

func (e *boxLimitError) Unwrap() error { return errBoxLimit }

// BoxReplay consumes a reference stream against boxes drawn from a profile
// source, under square semantics or through a live kernel (see NewBoxReplay).
// Feed it accesses (directly, via trace.Replay, or from a generator), then
// call Finish to close the last box. Each box is handed to onBox as it
// closes, in box order, and is not kept: memory is O(max block ID),
// independent of stream length and box count.
type BoxReplay struct {
	kernel   boxKernel // nil: square semantics
	src      profile.Source
	maxBoxes int64 // 0 = unbounded
	onBox    func(BoxStat)
	resident []int64 // square residency: resident[b] == epoch means cached
	epoch    int64
	cur      BoxStat // the open box; its Refs are filled in when it closes
	open     bool    // whether cur is open
	boxRefs  int64   // refs when cur opened
	refs     int64   // references served across all boxes
	boxes    int64   // boxes closed so far, for the box limit
	markedAt int64   // refs at the last EndLeaf (idempotency)
	err      error
}

// NewBoxReplay returns the box replay named name (one of ReplayNames)
// against box sizes from src, passing each closed box to onBox (nil
// discards them). maxBoxes guards against pathological stalls (0 =
// unbounded): opening box maxBoxes+1 stops the run with a "run exceeded"
// error. The "opt" replay needs plan, the OPTPlan of the trace it will be
// fed, and panics if fed anything else; other replays ignore plan. Unknown
// names error with every accepted name listed.
func NewBoxReplay(name string, plan *OPTPlan, src profile.Source, maxBoxes int64, onBox func(BoxStat)) (*BoxReplay, error) {
	k, err := newBoxKernel(name, plan)
	if err != nil {
		return nil, err
	}
	return newBoxReplay(k, src, maxBoxes, onBox), nil
}

func newBoxReplay(k boxKernel, src profile.Source, maxBoxes int64, onBox func(BoxStat)) *BoxReplay {
	// Epochs start at 1 so zero-filled residency means "not resident".
	return &BoxReplay{kernel: k, src: src, maxBoxes: maxBoxes, onBox: onBox, epoch: 1}
}

// Reserve pre-sizes the residency array, or the kernel's dense indexes, for
// block IDs up to maxBlock.
func (d *BoxReplay) Reserve(maxBlock int64) {
	if d.kernel != nil {
		d.kernel.Reserve(maxBlock)
		return
	}
	if maxBlock >= int64(len(d.resident)) {
		d.grow(maxBlock)
	}
}

// Access serves one block reference: a resident block is a free hit
// against the open box; a miss spends one I/O of the box's budget, opening
// the next box (with a cleared cache, or at the next capacity) first when
// the budget is already spent. Once the run has stopped, accesses are
// ignored.
//
//lint:hotpath
func (d *BoxReplay) Access(block int64) {
	if d.err != nil {
		return
	}
	if d.kernel != nil {
		d.kernelAccess(block)
		return
	}
	if block >= int64(len(d.resident)) {
		d.grow(block)
	}
	if d.resident[block] == d.epoch {
		d.refs++
		return
	}
	// Miss: needs an I/O from the open box's budget.
	if d.cur.IOs == d.cur.Size && !d.openBox() {
		return
	}
	d.resident[block] = d.epoch
	d.cur.IOs++
	d.refs++
}

// kernelAccess is Access through a live kernel. Residency is checked
// before charging only when the budget is spent, since a miss then belongs
// to the next box at the next capacity; while the open box can still pay
// for a miss, one kernel call serves the reference whether it hits or not.
func (d *BoxReplay) kernelAccess(block int64) {
	if d.cur.IOs == d.cur.Size && !d.kernel.Contains(block) && !d.openBox() {
		return
	}
	if !d.kernel.Access(block) {
		d.cur.IOs++
	}
	d.refs++
}

// openBox closes the open box, if any, and opens the next one: a fresh
// square, or the kernel resized to the new box. It reports false when the
// run stops instead — the box limit tripped, or the box is invalid.
func (d *BoxReplay) openBox() bool {
	if d.open {
		d.closeBox()
		d.boxes++
		if d.maxBoxes > 0 && d.boxes >= d.maxBoxes {
			//lint:ignore hotpath error path: the box limit tripping ends the run
			d.err = &boxLimitError{d.maxBoxes}
			return false
		}
	}
	d.cur = BoxStat{Size: d.src.Next()}
	d.boxRefs = d.refs
	d.epoch++
	if d.cur.Size < 1 {
		//lint:ignore hotpath error path: the run is dead after this, one allocation to say why is fine
		d.err = fmt.Errorf("paging: box source produced size %d", d.cur.Size)
		return false
	}
	if d.kernel != nil {
		if err := d.kernel.SetCapacity(d.cur.Size); err != nil {
			d.err = err
			return false
		}
	}
	d.open = true
	return true
}

// closeBox hands the open box to onBox.
func (d *BoxReplay) closeBox() {
	d.open = false
	d.cur.Refs = d.refs - d.boxRefs
	if d.onBox != nil {
		d.onBox(d.cur)
	}
}

// AccessRange serves blocks [lo, lo+count) in order.
func (d *BoxReplay) AccessRange(lo, count int64) {
	for i := int64(0); i < count && d.err == nil; i++ {
		d.Access(lo + i)
	}
}

// EndLeaf credits a base-case completion to the box that served the most
// recent access. Idempotent per access, matching trace.Builder. Once the
// run has stopped it is a no-op: the access the marker belongs to was
// never served, so there is no box to credit — panicking here would blame
// the generator for a profile or box-limit error, and crediting would
// mutate a closed box. The panic is reserved for the genuine structural
// bug of a marker before any access on a healthy run.
func (d *BoxReplay) EndLeaf() {
	if d.err != nil {
		return
	}
	if d.refs == 0 {
		panic("paging: EndLeaf before any access")
	}
	if d.markedAt == d.refs {
		return
	}
	d.markedAt = d.refs
	d.cur.Leaves++
}

// Stopped reports whether the run has stopped, so stopper-aware replays
// and generators stop feeding a replay that discards everything anyway.
func (d *BoxReplay) Stopped() bool { return d.err != nil }

// Finish closes the final (typically partial) box, passing it to onBox, or
// returns the error the run stopped with. A replay that served nothing
// closes no box.
func (d *BoxReplay) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.open {
		d.closeBox()
	}
	return nil
}

// served reports how many references the boxes served, and the error the
// run stopped with, if any, where reaching the box limit is no error: the
// form callers with a finite profile read.
func (d *BoxReplay) served() (int64, error) {
	if errors.Is(d.err, errBoxLimit) {
		return d.refs, nil
	}
	return d.refs, d.err
}

func (d *BoxReplay) grow(block int64) {
	n := int64(len(d.resident)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric residency growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]int64, n)
	copy(grown, d.resident)
	d.resident = grown
}

var (
	_ trace.Sink    = (*BoxReplay)(nil)
	_ trace.Stopper = (*BoxReplay)(nil)
)

// RunPolicyFixed replays tr at a fixed capacity by name — a registered
// kernel, or "opt" for Belady's baseline — and returns the miss count.
// This is the DAM-model counterpart of the box replay, used by the
// smoothness experiment's Δfaults/Δcapacity probes.
func RunPolicyFixed(name string, tr *trace.Trace, capacity int64) (int64, error) {
	if name == SquareReplayName {
		return 0, fmt.Errorf("paging: the %q replay clears the cache at every box; it has no fixed-capacity form", name)
	}
	var plan *OPTPlan
	if NeedsPlan(name) {
		var err error
		if plan, err = NewOPTPlan(tr); err != nil {
			return 0, err
		}
	}
	k, err := newBoxKernel(name, plan)
	if err != nil {
		return 0, err
	}
	if err := k.SetCapacity(capacity); err != nil {
		return 0, err
	}
	k.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		k.Access(tr.Block(i))
	}
	return k.Misses(), nil
}

// cacheAccessor is the shared replay surface of the kernels and the OPT
// cursor that CacheSink forwards to.
type cacheAccessor interface {
	Access(block int64) bool
}

// CacheSink adapts a kernel into a trace.Sink so generators can stream
// straight into a fixed-capacity replay (leaf markers are ignored —
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
