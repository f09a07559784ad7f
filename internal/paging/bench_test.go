package paging

import (
	"runtime"
	"testing"

	"repro/internal/matrix"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
)

// Replay micro-benchmarks: the array-backed kernels against the map-backed
// oracles they replaced (preserved in oracle_test.go). Each benchmark
// replays the same canonical (8,4,1) trace and reports per-access cost so
// the two are directly comparable:
//
//	go test ./internal/paging -run=NONE -bench=Replay -benchmem
//
// ns/access and B/access come from b.ReportMetric; B/access counts heap
// bytes allocated during the timed region (the kernels' steady state is
// zero, pinned separately by alloc_test.go).

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := regular.SyntheticTrace(regular.MMScanSpec, profile.Pow(4, 5))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// perAccess times run() b.N times over a tr.Len()-reference trace and
// reports ns/access and heap B/access.
func perAccess(b *testing.B, refs int, run func()) {
	b.Helper()
	b.ReportAllocs()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	accesses := float64(b.N) * float64(refs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/accesses, "ns/access")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/accesses, "B/access")
}

const benchCapacity = 128

func BenchmarkLRUReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	l, err := NewLRU(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	l.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		l.Clear()
		for i := 0; i < n; i++ {
			l.Access(tr.Block(i))
		}
	})
}

func BenchmarkLRUReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracleLRU(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

func BenchmarkFIFOReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	f, err := NewFIFO(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	f.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		f.Clear()
		for i := 0; i < n; i++ {
			f.Access(tr.Block(i))
		}
	})
}

func BenchmarkFIFOReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracleFIFO(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

func BenchmarkOPTReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	perAccess(b, tr.Len(), func() {
		if _, err := RunOPTFixed(tr, benchCapacity); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkOPTReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	perAccess(b, tr.Len(), func() {
		runOracleOPT(tr, benchCapacity)
	})
}

func BenchmarkARCReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	a, err := NewARC(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	a.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		a.Clear()
		for i := 0; i < n; i++ {
			a.Access(tr.Block(i))
		}
	})
}

func BenchmarkARCReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracleARC(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

func Benchmark2QReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	q, err := NewTwoQ(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	q.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		q.Clear()
		for i := 0; i < n; i++ {
			q.Access(tr.Block(i))
		}
	})
}

func Benchmark2QReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracle2Q(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

// BenchmarkPolicyStreamReplay measures the live-kernel box replay fed
// through the Sink interface, per registered policy — the path
// MeasureTracePolicy and E12 take.
func BenchmarkPolicyStreamReplay(b *testing.B) {
	tr := benchTrace(b)
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			perAccess(b, tr.Len(), func() {
				p, err := NewReplacementPolicy(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				src, err := profile.NewSliceSource(profile.MustNew([]int64{64}))
				if err != nil {
					b.Fatal(err)
				}
				q := NewPolicyStream(p, src, 0, discardBox)
				q.Reserve(tr.MaxBlock())
				trace.Replay(tr, q)
				if err := q.Finish(); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkSquareStreamReplay measures the streaming square cache fed
// through the Sink interface — the path every experiment now takes.
func BenchmarkSquareStreamReplay(b *testing.B) {
	tr := benchTrace(b)
	perAccess(b, tr.Len(), func() {
		src, err := profile.NewSliceSource(profile.MustNew([]int64{64}))
		if err != nil {
			b.Fatal(err)
		}
		q := NewSquareStream(src, 0, discardBox)
		q.Reserve(tr.MaxBlock())
		trace.Replay(tr, q)
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkServedRepeat is E9's repeated replay at dim 256: MM-Scan
// re-emitted on fresh data 12 times into the finisher over its streamed
// worst-case profile. It reports references served per second.
//
//	go test ./internal/paging -run=NONE -bench=ServedRepeat
func BenchmarkServedRepeat(b *testing.B) {
	const dim, bw, reps = 256, 8, 12
	emit := func(s trace.Sink) error { return matrix.EmitMulScan(dim, bw, s) }
	c := &trace.CountingSink{}
	if err := emit(c); err != nil {
		b.Fatal(err)
	}
	var served int64
	for i := 0; i < b.N; i++ {
		src, nBoxes, _, err := matrix.WorstCaseBoxStream(dim, bw)
		if err != nil {
			b.Fatal(err)
		}
		n, err := ServedRepeat(emit, c.MaxBlock, src, nBoxes, reps)
		if err != nil {
			b.Fatal(err)
		}
		served += n
	}
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkFaultCurve compares the two ways E13 can get a stack policy's
// fault curve over M ∈ [8, 136] on its dim-64 MM-Scan trace: one pass of
// StackCurve ("stack") against one RunPolicyFixed replay per capacity
// ("per-capacity"). ns/op is the cost of the whole 129-point curve.
//
//	go test ./internal/paging -run=NONE -bench=FaultCurve -benchmem
func BenchmarkFaultCurve(b *testing.B) {
	tr, err := matrix.TraceMulScan(64, 8)
	if err != nil {
		b.Fatal(err)
	}
	const lo, hi = 8, 136
	for _, p := range []string{"lru", OPTReplayName} {
		b.Run(p+"/stack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := StackCurve(p, tr, lo, hi); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p+"/per-capacity", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for m := int64(lo); m <= hi; m++ {
					if _, err := RunPolicyFixed(p, tr, m); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
