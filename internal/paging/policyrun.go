package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file is the policy-replay half of the box-profile substrate: the
// same memory profile the square semantics discretise (a box of size X
// grants X I/Os at capacity X), executed against a *live* replacement
// kernel instead of the cleared-cache square idealisation. Under square
// semantics every policy is identical — the cache is emptied at each box
// boundary, so a box of size X serves exactly X distinct blocks no matter
// who picks victims. PolicyStream is what makes policies distinguishable:
// the kernel's state survives box boundaries, SetCapacity applies the new
// box size (evicting per the policy on shrink), and the box charges one
// unit of budget per miss *as the policy replays it*. Experiment E12 runs
// both against the same profile; the spread between a policy's boxes and
// the square bound is exactly the adaptivity gap the paper's potential
// argument controls.

// Reserved replay names: accepted wherever a policy name selects a
// box-profile replay, alongside the kernel registry (PolicyNames).
const (
	// SquareReplayName selects the cleared-cache square semantics
	// (SquareRun) — the paper's upper-bound discretisation, identical for
	// every policy.
	SquareReplayName = "square"
	// OPTReplayName selects Belady's farthest-in-future choice replayed
	// under the box profile (OPTPlan.Run) — the clairvoyant baseline.
	OPTReplayName = "opt"
)

// ReplayNames lists every name PolicyRun accepts: the registered kernels
// plus the reserved "opt" and "square" replays, sorted.
func ReplayNames() []string {
	names := PolicyNames()
	names = append(names, OPTReplayName, SquareReplayName)
	return names
}

// PolicyStream consumes a reference stream through a live ReplacementPolicy
// whose capacity follows boxes drawn from a profile source: entering a box
// of size X resizes the kernel to X (evicting per the policy if it shrank)
// and grants a budget of X misses; the box ends when the budget is spent.
// Unlike SquareStream the cache is never cleared — the kernel's state is
// exactly what persists across profile changes. Feed it accesses (directly
// or via trace.Replay), then call Finish to close the last box; each box is
// handed to the onBox callback as it closes, as in SquareStream.
type PolicyStream struct {
	policy   ReplacementPolicy
	src      profile.Source
	maxBoxes int64
	onBox    func(BoxStat)
	boxes    int64 // boxes closed so far, for the maxBoxes guard
	cur      BoxStat
	started  bool
	err      error
	markedAt int64 // cur.Refs total at the last EndLeaf (idempotency)
	refs     int64 // total refs across all boxes, for markedAt
}

// NewPolicyStream returns a stream replaying through policy against box
// sizes from src and passing each closed box to onBox; maxBoxes guards
// against pathological stalls (0 = unbounded). The policy's starting
// capacity is irrelevant — the first box resizes it.
func NewPolicyStream(policy ReplacementPolicy, src profile.Source, maxBoxes int64, onBox func(BoxStat)) *PolicyStream {
	return &PolicyStream{policy: policy, src: src, maxBoxes: maxBoxes, onBox: onBox}
}

// Reserve pre-sizes the kernel's dense indexes for block IDs up to maxBlock.
func (q *PolicyStream) Reserve(maxBlock int64) { q.policy.Reserve(maxBlock) }

// openBox draws the next box and resizes the kernel to it.
func (q *PolicyStream) openBox() {
	q.cur = BoxStat{Size: q.src.Next()}
	if q.cur.Size < 1 {
		//lint:ignore hotpath error path: the stream is dead after this, one allocation to say why is fine
		q.err = fmt.Errorf("paging: box source produced size %d", q.cur.Size)
		q.started = false
		return
	}
	if err := q.policy.SetCapacity(q.cur.Size); err != nil {
		q.err = err
		q.started = false
	}
}

// Access serves one block reference: a resident block is a free hit against
// the current box; a miss spends one unit of the box's budget, rolling to
// the next box (and capacity) first when the budget is already spent.
//
//lint:hotpath
func (q *PolicyStream) Access(block int64) {
	if q.err != nil {
		return
	}
	if !q.started {
		q.started = true
		q.openBox()
		if q.err != nil {
			return
		}
	}
	if q.policy.Contains(block) {
		q.policy.Access(block)
		q.cur.Refs++
		q.refs++
		return
	}
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
		q.openBox()
		if q.err != nil {
			return
		}
	}
	q.policy.Access(block)
	q.cur.IOs++
	q.cur.Refs++
	q.refs++
}

// AccessRange serves blocks [lo, lo+count) in order.
func (q *PolicyStream) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		q.Access(lo + i)
	}
}

// EndLeaf credits a base-case completion to the box that served the most
// recent access — the same idempotent convention as SquareStream.EndLeaf.
func (q *PolicyStream) EndLeaf() {
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
// stop feeding a stream that discards everything anyway.
func (q *PolicyStream) Stopped() bool { return q.err != nil }

// Finish closes the final (typically partial) box, passing it to onBox, or
// returns the first error the stream hit. An untouched stream closes no
// box, matching SquareStream.
func (q *PolicyStream) Finish() error {
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

var (
	_ trace.Sink    = (*PolicyStream)(nil)
	_ trace.Stopper = (*PolicyStream)(nil)
)

// PolicyRun replays tr under the box profile src by name and returns the
// per-box ledger: a registered kernel streams through PolicyStream,
// "square" selects the cleared-cache square semantics, and "opt" the
// clairvoyant box replay. Unknown names error with every accepted name
// listed. On error the ledger holds the boxes closed before it.
func PolicyRun(name string, tr *trace.Trace, src profile.Source, maxBoxes int64) ([]BoxStat, error) {
	var stats []BoxStat
	collect := func(s BoxStat) { stats = append(stats, s) }
	switch name {
	case SquareReplayName:
		return SquareRun(tr, src, maxBoxes)
	case OPTReplayName:
		plan, err := NewOPTPlan(tr)
		if err != nil {
			return nil, err
		}
		err = plan.Run(src, maxBoxes, collect)
		return stats, err
	}
	p, err := NewReplacementPolicy(name, 1)
	if err != nil {
		return nil, fmt.Errorf("paging: unknown replay policy %q (have %v)", name, ReplayNames())
	}
	q := NewPolicyStream(p, src, maxBoxes, collect)
	q.Reserve(tr.MaxBlock())
	trace.Replay(tr, q)
	err = q.Finish() // closes the last box: read stats after it
	return stats, err
}

// RunPolicyFixed replays tr at a fixed capacity by name — a registered
// kernel, or "opt" for Belady's baseline — and returns the miss count.
// This is the DAM-model counterpart of PolicyRun, used by the smoothness
// experiment's Δfaults/Δcapacity probes.
func RunPolicyFixed(name string, tr *trace.Trace, capacity int64) (int64, error) {
	if name == OPTReplayName {
		return RunOPTFixed(tr, capacity)
	}
	p, err := NewReplacementPolicy(name, capacity)
	if err != nil {
		return 0, err
	}
	p.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		p.Access(tr.Block(i))
	}
	return p.Misses(), nil
}
