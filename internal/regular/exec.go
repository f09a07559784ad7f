package regular

import (
	"fmt"
	"math"
)

// ScanPolicy decides where a problem's linear scan is performed within its
// recursion: the scan of the problem identified by node (see NodeChild for
// the numbering) and size runs after the returned number of children, a
// value in [0, a] — 0 places the scan up front, a at the end (the canonical
// placement). Definition 2 allows all of these: "parts of the scan may be
// performed before, between, and after recursive calls". For scans split
// into several pieces, see SetSpreadScans.
//
// The policy must be a pure function of (node, size): the executor
// consults it several times per problem (once per segment boundary), so a
// stateful policy would see an unspecified call sequence.
//
// A nil policy means canonical end-of-problem scans.
type ScanPolicy func(node, size int64) int64

// NodeRoot is the node ID of the root problem.
const NodeRoot int64 = 1

// NodeChild returns the node ID of the i-th child (1-based, i in [1, a]) of
// node under the a-ary heap numbering used by the executor and by aligned
// profile constructions.
func NodeChild(node, a, i int64) int64 {
	return a*(node-1) + i + 1
}

// frame is one level of the execution stack. The stack's frames, root
// outwards, are the chain of in-progress problems: frame i+1 is the child
// of frame i currently executing, and childrenDone counts frame i's
// children fully completed before it.
//
// A frame's scan is divided into segments by the executor's layout (one
// contiguous segment at a policy-chosen slot by default; a piece after
// every child with spread scans). The innermost (top) frame encodes the
// current position:
//   - segRemaining > 0: execution is inside the scan segment at slot
//     childrenDone;
//   - otherwise childrenDone < A: execution sits at the *start* of the
//     frame's next child — and therefore also at the start of the chain of
//     descendants whose execution begins without an intervening scan
//     segment.
type frame struct {
	node         int64
	size         int64
	level        int // log_b size: the index of size in the executor's level table
	childrenDone int64
	segRemaining int64 // accesses left in the current scan segment
	scanLeft     int64 // scan accesses not yet performed across all segments
}

// Exec symbolically executes the canonical (a,b,c)-regular algorithm on a
// problem of n blocks against a stream of boxes, under the simplified
// caching model described in the package comment. It never materialises the
// recursion tree: state is a stack of at most log_b n + 1 frames.
//
// Exec is not safe for concurrent use.
type Exec struct {
	spec   Spec
	n      int64
	policy ScanPolicy
	// spreadScans splits every problem's scan into a equal pieces, one
	// performed after each child (remainder after the last) — the first
	// step of the scan-hiding transformation of Lincoln et al. [40], used
	// by ablation A6. Mutually exclusive with a non-nil policy.
	spreadScans bool
	// skipRootScan stops execution when the root's last child completes,
	// before the root scan. This measures the paper's f'(n) — the expected
	// number of boxes to complete a problem excluding its final scan. It is
	// only meaningful with canonical scan placement and is rejected
	// otherwise.
	skipRootScan bool
	// strictScans changes the in-scan rule: a box that reaches the end of a
	// scan segment stops there instead of completing the enclosing problem
	// of its own size. The default (lax) rule is the paper's Section-4
	// model and is budget-exact for canonical end-of-problem scans, where
	// "the rest of the problem" after the scan is nothing, and ancestor
	// completion is covered by the ancestor's working set. With mid-problem
	// scan placements, lax over-credits boxes whose scan's blocks are
	// disjoint from the blocks of the children that follow (MM-Scan's merge
	// scan writes output quadrants the later products do not reuse);
	// strictScans models those algorithms and is what the
	// box-order-perturbation worst-case witness requires.
	strictScans bool

	// levels is log_b n, and lv[k] describes problems of size b^k for
	// k = 0..levels, so the step loop reads sizes, leaf counts and scan
	// lengths instead of recomputing them.
	levels int
	lv     []level
	// exp is log_b a, hoisted out of every potential evaluation; pots
	// memoises min(box, n)^exp for boxes below potMemoCap, 0 meaning unset
	// (every stored value is >= 1). It is allocated on first use.
	exp  float64
	pots []float64

	stack      []frame
	done       bool
	leavesDone int64 // total base cases completed
	boxesUsed  int64 // boxes consumed (Step calls while running)
}

// level is one row of the executor's level table.
type level struct {
	size   int64 // b^k
	leaves int64 // a^k, the base cases in a problem of size b^k
	scan   int64 // ScanLen(b^k)
}

// potMemoCap caps the potential memo at 2^16 entries (512 KiB): boxes
// (clamped to n) of this size or more are evaluated directly, so a large n
// never allocates an n-sized table.
const potMemoCap = 1 << 16

// NewExec validates the problem size and returns a fresh executor with
// canonical (end-of-problem) scan placement, positioned at the start of the
// root problem.
func NewExec(spec Spec, n int64) (*Exec, error) {
	return NewExecWithPolicy(spec, n, nil)
}

// NewExecWithPolicy is NewExec with an explicit scan-placement policy.
func NewExecWithPolicy(spec Spec, n int64, policy ScanPolicy) (*Exec, error) {
	if _, err := NewSpec(spec.A, spec.B, spec.C); err != nil {
		return nil, err
	}
	if !spec.ValidSize(n) {
		return nil, fmt.Errorf("regular: problem size %d is not a power of b = %d", n, spec.B)
	}
	// Guard leaf-count overflow: a^k must fit comfortably in int64 (node
	// IDs are bounded by roughly the leaf count as well).
	k := spec.Levels(n)
	if float64(k)*math.Log(float64(spec.A)) > 62*math.Log(2) {
		return nil, fmt.Errorf("regular: problem size %d has too many leaves for int64 accounting", n)
	}
	e := &Exec{spec: spec, n: n, policy: policy, levels: k, lv: make([]level, k+1), exp: spec.Exponent()}
	size, leaves := int64(1), int64(1)
	for i := range e.lv {
		e.lv[i] = level{size: size, leaves: leaves, scan: spec.ScanLen(size)}
		if i < k {
			size *= spec.B
			leaves *= spec.A
		}
	}
	e.Reset()
	return e, nil
}

// segmentAt returns the length of f's scan segment at slot (= number of
// children completed so far). Slots run 0..a; the canonical layout puts the
// whole scan at the policy slot (default a), the spread layout 1/a of it
// after each child with the remainder after the last.
func (e *Exec) segmentAt(f *frame, slot int64) int64 {
	if e.skipRootScan && f.node == NodeRoot {
		return 0 // the f' measurement: the root performs no scan
	}
	total := e.lv[f.level].scan
	if total == 0 {
		return 0
	}
	if e.spreadScans {
		if slot == 0 {
			return 0
		}
		part := total / e.spec.A
		if slot == e.spec.A {
			return part + total%e.spec.A
		}
		return part
	}
	at := e.spec.A
	if e.policy != nil {
		at = e.policy(f.node, f.size)
		if at < 0 || at > e.spec.A {
			panic(fmt.Sprintf("regular: scan policy returned %d outside [0,%d] for node %d", at, e.spec.A, f.node))
		}
	}
	if slot == at {
		return total
	}
	return 0
}

// newFrame initialises a frame for the problem of size b^lvl at the start
// of its execution, entering the slot-0 scan segment if the layout has one.
func (e *Exec) newFrame(node int64, lvl int) frame {
	f := frame{node: node, size: e.lv[lvl].size, level: lvl, scanLeft: e.lv[lvl].scan}
	f.segRemaining = e.segmentAt(&f, 0)
	return f
}

// Reset returns the executor to the start of the root problem.
func (e *Exec) Reset() {
	e.stack = e.stack[:0]
	e.done = false
	e.leavesDone = 0
	e.boxesUsed = 0
	if e.n == 1 {
		// Degenerate root: a single base case.
		e.stack = append(e.stack, frame{node: NodeRoot, size: 1})
		return
	}
	root := e.newFrame(NodeRoot, e.levels)
	if e.skipRootScan {
		root.scanLeft = 0
		root.segRemaining = 0
	}
	e.stack = append(e.stack, root)
	e.normalise()
}

// SetSkipRootScan configures the executor to finish when the root's final
// subproblem completes, omitting the root scan (the f' measurement). Must
// be called before the first Step, and requires canonical scan placement.
func (e *Exec) SetSkipRootScan(skip bool) error {
	if e.boxesUsed != 0 {
		return fmt.Errorf("regular: SetSkipRootScan after execution started")
	}
	if skip && (e.policy != nil || e.spreadScans) {
		return fmt.Errorf("regular: skip-root-scan requires canonical scan placement")
	}
	e.skipRootScan = skip
	e.Reset()
	return nil
}

// SetStrictScans switches the in-scan rule (see the strictScans field for
// the model it captures). Must be called before the first Step.
func (e *Exec) SetStrictScans(strict bool) error {
	if e.boxesUsed != 0 {
		return fmt.Errorf("regular: SetStrictScans after execution started")
	}
	e.strictScans = strict
	return nil
}

// SetSpreadScans switches every problem's scan to the per-child spread
// layout (see the spreadScans field). Must be called before the first Step
// and is mutually exclusive with a scan policy.
func (e *Exec) SetSpreadScans(spread bool) error {
	if e.boxesUsed != 0 {
		return fmt.Errorf("regular: SetSpreadScans after execution started")
	}
	if spread && e.policy != nil {
		return fmt.Errorf("regular: spread scans are mutually exclusive with a scan policy")
	}
	if spread && e.skipRootScan {
		return fmt.Errorf("regular: spread scans are incompatible with skip-root-scan")
	}
	e.spreadScans = spread
	e.Reset()
	return nil
}

// Spec returns the (a,b,c) specification the executor runs.
func (e *Exec) Spec() Spec { return e.spec }

// N returns the problem size in blocks.
func (e *Exec) N() int64 { return e.n }

// Done reports whether the root problem has completed.
func (e *Exec) Done() bool { return e.done }

// LeavesDone returns the number of base cases completed so far.
func (e *Exec) LeavesDone() int64 { return e.leavesDone }

// BoxesUsed returns the number of boxes consumed so far.
func (e *Exec) BoxesUsed() int64 { return e.boxesUsed }

// TotalLeaves returns the number of base cases in the whole problem.
func (e *Exec) TotalLeaves() int64 { return e.lv[e.levels].leaves }

// BoundedPotential returns min(n, |□|)^{log_b a}, bit for bit equal to
// e.Spec().BoundedPotential(box, e.N()): the exponent is the same float64,
// computed once, and memoised powers are the same math.Pow results.
func (e *Exec) BoundedPotential(box int64) float64 {
	if box > e.n {
		box = e.n
	}
	if box < 1 || box >= potMemoCap {
		return BoundedPow(box, e.n, e.exp)
	}
	if e.pots == nil {
		e.pots = make([]float64, min(e.n+1, potMemoCap))
	}
	p := e.pots[box]
	if p == 0 {
		p = BoundedPow(box, e.n, e.exp)
		e.pots[box] = p
	}
	return p
}

// targetLevel returns the level of the problem a box of the given size
// completes at most: box rounded down to a power of b (minimum 1), capped
// at n. The simplified model uses power-of-b box sizes; general sizes are
// rounded down for completion decisions, which only weakens boxes and so
// keeps the efficiency criterion conservative.
func (e *Exec) targetLevel(box int64) int {
	k := 0
	for k < e.levels && e.lv[k+1].size <= box {
		k++
	}
	return k
}

// Step feeds one box of the given size to the execution and returns the
// progress the box makes (base cases completed at least partly within it).
// Steps after completion consume nothing and return 0.
func (e *Exec) Step(box int64) int64 {
	if e.done {
		return 0
	}
	if box < 1 {
		// A degenerate box serves nothing; profiles are validated
		// elsewhere, so this is belt-and-braces.
		return 0
	}
	e.boxesUsed++

	// Degenerate single-leaf problem.
	if e.n == 1 {
		e.leavesDone = 1
		e.done = true
		return 1
	}

	target := e.targetLevel(box)

	for {
		top := &e.stack[len(e.stack)-1]
		if top.segRemaining > 0 {
			if !e.strictScans && target >= top.level {
				// The scan's position lies inside the ancestor problems of
				// sizes top.size, top.size·b, ..., n; the box completes the
				// one at the target level.
				return e.completeWithProgress(e.frameIndex(target))
			}
			// The box begins in a scan segment of a problem larger than
			// itself: it advances min(box, remaining segment) accesses and
			// completes no base cases.
			adv := box
			if adv > top.segRemaining {
				adv = top.segRemaining
			}
			top.segRemaining -= adv
			top.scanLeft -= adv
			if top.segRemaining == 0 {
				e.normalise()
			}
			return 0
		}

		// At the start of the next child of the top frame.
		child := top.level - 1
		switch {
		case target > child:
			// The position lies strictly inside the ancestor problems of
			// sizes top.size, ..., n. Complete the ancestor at the target
			// level.
			return e.completeWithProgress(e.frameIndex(target))
		case target == child:
			// The box completes the child as a unit.
			progress := e.lv[child].leaves
			e.leavesDone += progress
			top.childrenDone++
			top.segRemaining = e.segmentAt(top, top.childrenDone)
			e.normalise()
			return progress
		default:
			// target < child (hence the child's size > 1): descend into
			// the child and re-examine. The child's execution may begin
			// with its own scan segment (upfront placement) or with its
			// first grandchild; the loop handles both.
			childIdx := top.childrenDone + 1 // 1-based
			node := NodeChild(top.node, e.spec.A, childIdx)
			e.stack = append(e.stack, e.newFrame(node, child))
		}
	}
}

// completeWithProgress completes the subtree rooted at stack index idx
// (including any remaining scan segments inside it) and returns the base
// cases that completion finishes.
func (e *Exec) completeWithProgress(idx int) int64 {
	progress := e.remainingLeaves(idx)
	e.leavesDone += progress
	if idx == 0 {
		e.done = true
		e.stack = e.stack[:1]
		return progress
	}
	e.stack = e.stack[:idx]
	top := &e.stack[idx-1]
	top.childrenDone++
	top.segRemaining = e.segmentAt(top, top.childrenDone)
	e.normalise()
	return progress
}

// frameIndex returns the index of the stack frame at the given level.
// Levels on the stack are levels, levels−1, ..., top.level, so for any
// target level in [top.level, levels] the frame exists.
func (e *Exec) frameIndex(lvl int) int {
	depth := e.levels - lvl
	if depth < 0 || depth >= len(e.stack) {
		panic(fmt.Sprintf("regular: no frame of size %d on stack (depth %d, stack %d)",
			e.lv[lvl].size, depth, len(e.stack)))
	}
	return depth
}

// remainingLeaves counts the base cases not yet completed in the subtree
// rooted at stack index idx.
func (e *Exec) remainingLeaves(idx int) int64 {
	var rem int64
	for i := idx; i < len(e.stack); i++ {
		f := e.stack[i]
		pending := e.spec.A - f.childrenDone
		if i < len(e.stack)-1 {
			pending-- // the active child is accounted for by deeper frames
		}
		rem += pending * e.lv[f.level-1].leaves
	}
	return rem
}

// normalise restores the position invariant after progress: it completes
// frames whose children and scan are all done (propagating to parents) and
// stops at a frame that is either inside a scan segment or has a next
// child to start.
func (e *Exec) normalise() {
	for {
		top := &e.stack[len(e.stack)-1]
		if top.segRemaining > 0 {
			return // position: inside a scan segment
		}
		if top.childrenDone < e.spec.A {
			return // position: start of next child
		}
		if top.scanLeft > 0 {
			// All children done but scan accesses remain with no segment
			// open: only possible if the layout is inconsistent.
			panic(fmt.Sprintf("regular: frame %d finished children with %d scan accesses unplaced", top.node, top.scanLeft))
		}
		// Frame complete.
		if len(e.stack) == 1 {
			e.done = true
			return
		}
		e.stack = e.stack[:len(e.stack)-1]
		parent := &e.stack[len(e.stack)-1]
		parent.childrenDone++
		parent.segRemaining = e.segmentAt(parent, parent.childrenDone)
	}
}

// Run consumes boxes from next until completion (or until maxBoxes boxes
// have been consumed, to bound adversarial stalls; 0 means no bound),
// invoking visit — if non-nil — with each box size and the progress it made.
// Using a visitor keeps multi-million-box runs allocation-free.
func (e *Exec) Run(next func() int64, maxBoxes int64, visit func(box, progress int64)) error {
	for !e.done {
		if maxBoxes > 0 && e.boxesUsed >= maxBoxes {
			return fmt.Errorf("regular: execution exceeded %d boxes", maxBoxes)
		}
		b := next()
		if b < 1 {
			return fmt.Errorf("regular: box source produced size %d", b)
		}
		p := e.Step(b)
		if visit != nil {
			visit(b, p)
		}
	}
	return nil
}

// RunCollect is Run with the per-box sizes and progress gathered into
// slices, for tests and small experiments.
func (e *Exec) RunCollect(next func() int64, maxBoxes int64) (boxes, progress []int64, err error) {
	err = e.Run(next, maxBoxes, func(b, p int64) {
		boxes = append(boxes, b)
		progress = append(progress, p)
	})
	return boxes, progress, err
}
