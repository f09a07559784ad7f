// Package engine provides the shared parallel experiment engine: a bounded
// worker pool over which experiments fan out — across experiments in a full
// run, and within an experiment across (size, trial) cells — with results
// written into caller-indexed slots so that output is byte-identical to a
// serial run for any worker count.
//
// Determinism is by construction, not by scheduling: every cell owns a
// deterministic seed (derived up front, typically via xrand.Split) and a
// dedicated result slot, so the schedule order can be arbitrary. The pool
// only bounds *how many* cells run at once, never *which* value a cell
// computes.
//
// The pool is deadlock-free under nesting. A Map call always executes cells
// on its own calling goroutine (worker 0) and merely *tries* to recruit
// extra workers from the pool's token bucket; if the pool is saturated —
// for example because an experiment running inside an outer Map calls an
// inner Map — the inner call degrades to a serial loop on its caller
// instead of waiting on tokens held by its ancestors.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Pool is a bounded token bucket limiting how many cells execute
// concurrently across every Map that draws from it. A pool with W workers
// allows the calling goroutine plus up to W-1 recruited helpers.
type Pool struct {
	workers int
	tokens  chan struct{}
}

// New returns a pool allowing up to `workers` concurrently executing cells.
// workers < 1 selects runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Workers returns the pool's concurrency bound (including the caller).
func (p *Pool) Workers() int { return p.workers }

// idle returns the number of worker tokens currently free, i.e. how many
// helpers a Map started now could recruit. The value is advisory: tokens
// move concurrently.
func (p *Pool) idle() int { return len(p.tokens) }

// TryToken is the pool's priority hook for background work: it claims one
// worker token without blocking, but only while more than `reserve` tokens
// remain free, so low-priority callers (the batch-jobs scheduler) consume
// idle capacity without starving interactive Maps of recruits. It returns
// an idempotent release func and true on success, or (nil, false) when the
// pool is too busy — the caller should back off and retry, never wait.
//
// Two shapes keep this deadlock-free. A 1-worker pool has a zero-capacity
// bucket — there are no helpers to protect — so TryToken trivially succeeds
// with a no-op release rather than starving background work forever. And
// Map never *requires* tokens (it degrades to the caller's goroutine), so a
// token held across a long batch cell can delay recruitment but can never
// wedge a Map. The free-count check is advisory, like idle: a racing Map
// may take the token first, in which case the select falls through to
// failure instead of blocking.
//
// reserve is clamped to cap(tokens)-1 so background work can always claim
// at least one token when the pool is fully idle: a 2-worker pool has a
// 1-token bucket, and an unclamped reserve of 1 would make every call fail
// — batch cells would never dispatch on a 2-vCPU host.
func (p *Pool) TryToken(reserve int) (release func(), ok bool) {
	if cap(p.tokens) == 0 {
		return func() {}, true
	}
	if reserve < 0 {
		reserve = 0
	}
	if reserve >= cap(p.tokens) {
		reserve = cap(p.tokens) - 1
	}
	if len(p.tokens) <= reserve {
		return nil, false
	}
	select {
	case <-p.tokens:
		var once sync.Once
		return func() {
			once.Do(func() { p.tokens <- struct{}{} })
		}, true
	default:
		return nil, false
	}
}

var (
	sharedMu sync.Mutex
	//lint:guardedby sharedMu
	shared *Pool
)

// Shared returns the process-wide pool used by the experiment runners. It
// is sized to runtime.GOMAXPROCS(0) on first use; SetSharedWorkers resizes
// it.
func Shared() *Pool {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if shared == nil {
		shared = New(0)
	}
	return shared
}

// SetSharedWorkers replaces the shared pool with one of the given size
// (< 1 = GOMAXPROCS). In-flight Groups keep their old pool; new Groups see
// the new bound. Intended for the CLI's -workers flag and for determinism
// tests that pin the worker count.
func SetSharedWorkers(workers int) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	shared = New(workers)
}

// Group runs cell fan-outs on a pool and accounts for them: cells executed
// and cumulative busy time, the raw material for per-experiment worker
// utilisation. One Group per experiment run keeps the observability
// per-experiment even while many experiments share one pool.
type Group struct {
	pool  *Pool
	ctx   context.Context // nil means never cancelled
	cells atomic.Int64
	busy  atomic.Int64 // nanoseconds spent inside cell functions
}

// Group returns a new stats-collecting view of the pool.
func (p *Pool) Group() *Group { return &Group{pool: p} }

// NewGroup returns a Group on the shared pool.
func NewGroup() *Group { return Shared().Group() }

// WithContext attaches ctx to the group and returns the group. A Map on a
// cancelled group stops claiming new cells — in-flight cells finish, queued
// cells never start — and Map reports ctx's error once its workers drain.
// Call it before Map; the long-running service threads request deadlines
// into experiment fan-outs this way.
func (g *Group) WithContext(ctx context.Context) *Group {
	g.ctx = ctx
	return g
}

// Workers returns the underlying pool's concurrency bound.
func (g *Group) Workers() int { return g.pool.workers }

// Cells returns the number of cells executed through this group so far.
func (g *Group) Cells() int64 { return g.cells.Load() }

// Busy returns the cumulative wall time spent inside cell functions —
// summed across workers, so Busy can exceed elapsed time on multicore.
func (g *Group) Busy() time.Duration { return time.Duration(g.busy.Load()) }

// PanicError is a cell function's panic, contained by Map and converted
// into an ordinary error: it carries the index of the cell that panicked,
// the panic value, and the stack captured at recovery. Map treats it like
// any other cell error (lowest-indexed wins), so one poisoned cell fails
// its own Map call — with enough context to debug it — instead of killing
// the process and every unrelated run sharing the pool.
type PanicError struct {
	Cell  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// runCell executes fn for one cell with panic containment: a panic inside
// fn (or an injected fault.PointEngineCell fault) becomes a *PanicError in
// the cell's error slot. The recover sits here — around the single cell
// call — rather than at the goroutine top so both recruited workers and
// the caller's own work(0) loop are covered by one mechanism, and the
// claim loop keeps running the remaining cells after a poisoned one.
func runCell(fn func(cell, worker int) error, cell, worker int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Cell: cell, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := fault.Fire(fault.PointEngineCell); err != nil {
		return err
	}
	return fn(cell, worker)
}

// Map runs fn(cell, worker) for every cell in [0, n) and returns the
// lowest-indexed error (nil if none). The calling goroutine always
// participates as worker 0; additional workers (1 .. Workers()-1) are
// recruited only while pool tokens are free, so nested Maps never deadlock.
// Worker indices are dense and stable for the duration of the call, so fn
// may index per-worker scratch (executors, profile buffers) with them.
//
// Each cell index is claimed exactly once; fn must derive everything it
// needs from its cell index (deterministic seeds included) and write only
// to cell-indexed slots, which makes the result independent of both the
// schedule and the worker count.
//
// A panicking cell does not crash the process: the panic is recovered at
// the cell boundary, recorded as a *PanicError for that cell, and the
// remaining cells still run. Recruited workers return their pool tokens
// on every path, so the pool stays usable after arbitrary cell failures.
func (g *Group) Map(n int, fn func(cell, worker int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func(worker int) {
		for {
			if g.ctx != nil && g.ctx.Err() != nil {
				return // cancelled: stop claiming cells, let callers drain
			}
			cell := int(next.Add(1)) - 1
			if cell >= n {
				return
			}
			start := time.Now()
			errs[cell] = runCell(fn, cell, worker)
			g.busy.Add(int64(time.Since(start)))
			g.cells.Add(1)
		}
	}
	var wg sync.WaitGroup
	p := g.pool
	spawned := 0
recruit:
	for spawned+1 < p.workers && spawned+1 < n {
		select {
		case <-p.tokens:
			spawned++
			wg.Add(1)
			//lint:ignore norecover cell panics are contained by runCell inside work; the claim loop itself performs no panicking operations
			go func(worker int) {
				defer wg.Done()
				defer func() { p.tokens <- struct{}{} }()
				work(worker)
			}(spawned)
		default:
			break recruit // pool saturated: run on the caller alone
		}
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if g.ctx != nil {
		// No cell failed, but a cancelled run is incomplete: unclaimed cells
		// never wrote their slots, so the caller must not trust the results.
		if err := g.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
