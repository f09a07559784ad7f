package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/adaptivity"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// runProbes times the calls into each layer's public functions, one probe
// per layer, and checks what they return. Every traced run executes all of
// them, whatever its workload, so every traced result carries every
// per-layer metric.
func runProbes(b *bench) error {
	for _, p := range []struct {
		name string
		fn   func(*bench) error
	}{
		{"core", probeCore},
		{"core E9 at one worker", probeE9OneWorker},
		{"engine", probeEngine},
		{"paging kernels", probeKernels},
		{"paging fault curves", probeCurves},
		{"paging canonical-trace kernels", probeCanonicalKernels},
		{"trace generators", probeGenerators},
		{"profile worst-case stream", probeWorstCase},
		{"paging served replay", probeServed},
		{"adaptivity", probeAdaptivity},
		{"service", probeService},
		{"jobs journal", probeJournal},
	} {
		start := time.Now()
		if err := p.fn(b); err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s probe: %.1fs\n", p.name, time.Since(start).Seconds())
	}
	return nil
}

// probeCore runs each experiment alone at the default config, so its wall
// and CPU time are its own (under RunAll, experiments overlap on one pool
// and Table.Metrics cannot separate them). Every table is checked against
// the golden file; Table.Metrics.Cells is used only as a count.
func probeCore(b *bench) error {
	var cells int64
	for _, e := range core.Experiments() {
		var t *core.Table
		wall, cpu, err := timedSection(func() error {
			_, err := b.timeCall("core.RunContext/"+e.ID, func() error {
				var err error
				t, err = core.RunContext(b.ctx, e.ID, core.DefaultConfig())
				return err
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		b.check(b.golden.matches(t), "%s run alone differs from %s", e.ID, goldenPath)
		b.setValue("core."+e.ID+".wall_s", "s", wall, 1)
		b.setValue("core."+e.ID+".cpu_s", "s", cpu, 1)
		cells += t.Metrics.Cells
	}
	b.setValue("engine.cells", "count", float64(cells), 1)
	return nil
}

// probeE9OneWorker is the e9-stream workload's E9 with a one-worker engine
// pool, which also keeps the replay on its serial path; beside e9-stream's
// wall time it shows what the sharded path costs or saves.
func probeE9OneWorker(b *bench) error {
	engine.SetSharedWorkers(1)
	defer engine.SetSharedWorkers(0)
	var t *core.Table
	wall, err := b.timeCall("core.RunContext/E9-maxk8-w1", func() error {
		var err error
		t, err = core.RunContext(b.ctx, "E9", e9Config(defaultSeed))
		return err
	})
	if err != nil {
		return err
	}
	b.checkE9(t)
	b.setValue("core.E9-maxk8-w1.wall_s", "s", wall.Seconds(), 1)
	return nil
}

// probeEngine measures the per-cell cost of the engine's fan-out with
// empty cells.
func probeEngine(b *bench) error {
	const n = 1 << 20
	var samples []float64
	for i := 0; i < 5; i++ {
		g := engine.NewGroup()
		d, err := b.timeCall("engine.Map", func() error {
			return g.Map(n, func(int, int) error { return nil })
		})
		if err != nil {
			return err
		}
		b.check(g.Cells() == n, "engine ran %d of %d cells", g.Cells(), n)
		samples = append(samples, float64(d)/n)
	}
	b.set("engine.cell_ns", "ns", samples)
	return nil
}

// kernelPolicies are the replacement kernels: the registry's policies plus
// Belady's OPT.
var kernelPolicies = []string{"lru", "fifo", "arc", "2q", paging.OPTReplayName}

// runKernel times one RunPolicyFixed call and counts its heap allocations.
func (b *bench) runKernel(name string, tr *trace.Trace, capacity int64) (faults int64, ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := b.timeCall("paging.RunPolicyFixed/"+name, func() error {
		var err error
		faults, err = paging.RunPolicyFixed(name, tr, capacity)
		return err
	})
	runtime.ReadMemStats(&m1)
	n := float64(tr.Len())
	return faults, float64(d) / n, float64(m1.Mallocs-m0.Mallocs) / n, err
}

// probeKernels replays the dim-128 MM-Scan trace at capacity 64 through
// each kernel. The fault counts are E13's, so they are checked against the
// golden E13 rows.
func probeKernels(b *bench) error {
	tr, err := matrix.TraceMulScan(128, 8)
	if err != nil {
		return err
	}
	e13 := b.e13Faults()
	for _, p := range kernelPolicies {
		var ns, allocs []float64
		for i := 0; i < 5; i++ {
			faults, nsPer, allocsPer, err := b.runKernel(p, tr, 64)
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			b.check(e13[e13Key(128, p, 64)] == faults, "%s faults %d at dim 128, M 64; golden E13 says %d", p, faults, e13[e13Key(128, p, 64)])
			ns = append(ns, nsPer)
			allocs = append(allocs, allocsPer)
		}
		b.set("paging."+p+".ns_per_access", "ns", ns)
		b.set("paging."+p+".allocs_per_access", "count", allocs)
	}
	return nil
}

const e13SweepLo, e13SweepHi = 8, 136

// probeCurves computes each policy's full E13 fault curve (dims 64 and 128,
// M = 8…136) serially: the work a one-pass stack-distance curve would
// replace for lru and opt. Curves are checked against the golden E13 grid,
// and lru's and opt's for monotonicity.
func probeCurves(b *bench) error {
	var traces []*trace.Trace
	dims := []int{64, 128}
	for _, dim := range dims {
		tr, err := matrix.TraceMulScan(dim, 8)
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	e13 := b.e13Faults()
	for _, p := range kernelPolicies {
		curves := make([][]int64, len(dims))
		d, err := b.timeCall("paging.curve/"+p, func() error {
			for i, tr := range traces {
				for m := int64(e13SweepLo); m <= e13SweepHi; m++ {
					f, err := paging.RunPolicyFixed(p, tr, m)
					if err != nil {
						return err
					}
					curves[i] = append(curves[i], f)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for i, dim := range dims {
			for _, m := range []int64{16, 32, 64, 128} {
				want, ok := e13[e13Key(dim, p, m)]
				b.check(ok && curves[i][m-e13SweepLo] == want, "%s curve at dim %d, M %d: %d faults, golden E13 says %d", p, dim, m, curves[i][m-e13SweepLo], want)
			}
			if p == "lru" || p == paging.OPTReplayName {
				mono := true
				for j := 1; j < len(curves[i]); j++ {
					mono = mono && curves[i][j] <= curves[i][j-1]
				}
				b.check(mono, "%s fault curve at dim %d is not monotone", p, dim)
			}
		}
		b.setValue("paging."+p+".curve_s", "s", d.Seconds(), 1)
	}
	return nil
}

func e13Key(dim int, policy string, m int64) string {
	return fmt.Sprintf("%d/%s/%d", dim, policy, m)
}

// e13Faults maps dim/policy/M to the golden E13 fault count.
func (b *bench) e13Faults() map[string]int64 {
	out := map[string]int64{}
	_, rows := b.golden.rows("E13")
	for _, r := range rows {
		if len(r) < 4 {
			continue
		}
		f, err := strconv.ParseInt(r[3], 10, 64)
		if err == nil {
			out[r[0]+"/"+r[1]+"/"+r[2]] = f
		}
	}
	return out
}

// probeCanonicalKernels repeats the kernel probe on the input of the
// internal/paging replay benchmarks that BENCH_pr10.json records — the
// canonical (8,4,1) k = 5 trace at capacity 128 — so those numbers have a
// comparable successor. The trace has T(4^5) = 64512 references
// (BENCH_pr10.json rounds it to 65536).
func probeCanonicalKernels(b *bench) error {
	n := profile.Pow(4, 5)
	tr, err := regular.SyntheticTrace(regular.MMScanSpec, n)
	if err != nil {
		return err
	}
	b.check(float64(tr.Len()) == regular.MMScanSpec.IOCost(n), "canonical (8,4,1) k=5 trace has %d references, T(n) = %g", tr.Len(), regular.MMScanSpec.IOCost(n))
	for _, p := range []string{"lru", "fifo", "arc", "2q"} {
		var ns []float64
		var first int64
		for i := 0; i < 201; i++ {
			start := time.Now()
			faults, err := paging.RunPolicyFixed(p, tr, 128)
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			if i == 0 {
				first = faults
			} else if faults != first {
				b.check(false, "%s: %d faults, earlier replay %d", p, faults, first)
			}
			ns = append(ns, float64(d)/float64(tr.Len()))
		}
		b.set("paging.pr10."+p+".ns_per_access", "ns", ns)
	}
	return nil
}

// probeGenerators streams E9's dim-1024 workloads into a counting sink.
func probeGenerators(b *bench) error {
	for _, g := range []struct {
		name string
		emit func(int, int64, trace.Sink) error
	}{
		{"mulscan", matrix.EmitMulScan},
		{"mulinplace", matrix.EmitMulInPlace},
	} {
		var rates []float64
		var refs int64
		for i := 0; i < 3; i++ {
			c := &trace.CountingSink{}
			d, err := b.timeCall("matrix.Emit/"+g.name, func() error { return g.emit(1024, 8, c) })
			if err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
			b.check(c.Refs > 0 && (i == 0 || c.Refs == refs), "%s emitted %d references, earlier %d", g.name, c.Refs, refs)
			refs = c.Refs
			rates = append(rates, float64(c.Refs)/d.Seconds())
		}
		b.set("trace."+g.name+".refs_per_s", "1/s", rates)
	}
	return nil
}

// probeWorstCase drains E9's dim-1024 worst-case box stream; its box count
// and total I/Os are E9's dim-1024 row.
func probeWorstCase(b *bench) error {
	var rates []float64
	for i := 0; i < 3; i++ {
		src, count, duration, err := matrix.WorstCaseBoxStream(1024, 8)
		if err != nil {
			return err
		}
		var sum int64
		d, _ := b.timeCall("profile.WorstCaseBoxStream", func() error {
			for j := int64(0); j < count; j++ {
				sum += src.Next()
			}
			return nil
		})
		b.check(count == 2396745 && sum == duration && duration == 100270080,
			"dim-1024 worst-case stream: %d boxes summing to %d (duration %d), want 2396745 and 100270080", count, sum, duration)
		rates = append(rates, float64(count)/d.Seconds())
	}
	b.set("profile.worstcase.boxes_per_s", "1/s", rates)
	return nil
}

// probeServed replays E9's dim-1024 MM-InPlace rung (16 fresh repetitions
// into the square finisher over the streamed worst-case profile) through
// ServedEmitRepeatParallel, serially and at the default shard count. Both
// must complete E9's 8 multiplies.
func probeServed(b *bench) error {
	emit := func(s trace.Sink) error { return matrix.EmitMulInPlace(1024, 8, s) }
	c := &trace.CountingSink{}
	if err := emit(c); err != nil {
		return err
	}
	for _, v := range []struct {
		name   string
		shards int
	}{{"serial", 1}, {"sharded", paging.DefaultShards()}} {
		src, nBoxes, _, err := matrix.WorstCaseBoxStream(1024, 8)
		if err != nil {
			return err
		}
		var served int64
		d, err := b.timeCall("paging.ServedEmitRepeatParallel/"+v.name, func() error {
			var err error
			served, err = paging.ServedEmitRepeatParallel(emit, c.Refs, c.MaxBlock, src, nBoxes, 16, c.MaxBlock+1, v.shards)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		b.check(served/c.Refs == 8, "%s replay completed %d multiplies, E9 says 8", v.name, served/c.Refs)
		b.setValue("paging.served."+v.name+"_s", "s", d.Seconds(), 1)
	}
	return nil
}

// probeAdaptivity times the symbolic executor (one E3-style gap sample of
// (8,4,1) at n = 4^7 under uniform[4,64] boxes) and the trace-backed
// measurement ((8,4,1) at 4^6 against the worst-case stream).
func probeAdaptivity(b *bench) error {
	uni, err := xrand.NewUniform(4, 64)
	if err != nil {
		return err
	}
	var us []float64
	for i := 0; i < 40; i++ {
		var gap float64
		d, err := b.timeCall("adaptivity.GapSample", func() error {
			var err error
			gap, err = adaptivity.GapSample(regular.MMScanSpec, profile.Pow(4, 7), uni, xrand.Split(b.seed, "probe/gap", int64(i)))
			return err
		})
		if err != nil {
			return err
		}
		b.check(gap > 0 && !math.IsInf(gap, 0) && !math.IsNaN(gap), "gap sample %d is %g", i, gap)
		us = append(us, float64(d)/1e3)
	}
	b.set("adaptivity.gap_sample_us", "us", us)

	var secs []float64
	var first adaptivity.RunResult
	for i := 0; i < 3; i++ {
		src, err := profile.NewWorstCaseSource(8, 4)
		if err != nil {
			return err
		}
		var res adaptivity.RunResult
		d, err := b.timeCall("adaptivity.MeasureTrace", func() error {
			var err error
			res, err = adaptivity.MeasureTrace(regular.MMScanSpec, profile.Pow(4, 6), src, 0)
			return err
		})
		if err != nil {
			return err
		}
		b.check(res.Progress == profile.Pow(8, 6) && (i == 0 || res == first),
			"MeasureTrace progress %d of %d leaves (first run %+v, this %+v)", res.Progress, profile.Pow(8, 6), first, res)
		first = res
		secs = append(secs, d.Seconds())
	}
	b.set("adaptivity.measure_trace_s", "s", secs)
	return nil
}

// probeService runs one traced serve-mixed repetition: the client-observed
// latencies, the handler times from the benchmark's middleware, the direct
// core.RunContext time of the miss keys, and the service and jobs ledgers.
func probeService(b *bench) error {
	setup := b.setupSamples
	defer func() { b.setupSamples = setup }() // the probe's server is not this workload's set-up
	sr := &serveRun{}
	if _, _, err := sr.rep(b); err != nil {
		return err
	}
	sr.reportLatency(b)
	b.set("service.hit.handler_p50_us", "us", sr.hitHandler)
	b.setTail("service.hit.handler_p99_us", "us", sr.hitHandler, 0.99)
	b.set("service.hit.transport_p50_us", "us", sr.hitNet)
	b.set("service.miss.handler_p50_ms", "ms", sr.missHandle)
	b.set("service.miss.run_p50_ms", "ms", sr.missRunMs)
	m := sr.last
	b.setValue("service.requests", "count", float64(m.Service.Requests), 1)
	b.setValue("service.hits", "count", float64(m.Cache.Hits), 1)
	b.setValue("service.misses", "count", float64(m.Cache.Misses), 1)
	b.setValue("service.coalesced", "count", float64(m.Cache.Coalesced), 1)
	b.setValue("service.sheds", "count", float64(m.Service.Sheds), 1)
	b.set("jobs.job.wall_s", "s", sr.jobWall)
	b.setValue("jobs.retries", "count", float64(m.Jobs.Retries), 1)
	b.setValue("jobs.transient_sheds", "count", float64(m.Jobs.TransientSheds), 1)
	b.journalBody = sr.bodyLen
	return nil
}

// probeJournal appends job-cell-sized records to a fresh journal on the
// checkout's disk (each append is fsync'd), then reopens it and checks
// every record replays.
func probeJournal(b *bench) error {
	const appends = 1200 // p99 keeps twelve samples beyond it
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := jobs.OpenJournal(dir)
	if err != nil {
		return err
	}
	b.check(b.journalBody > 0, "no job cell body size measured")
	body := bytes.Repeat([]byte("x"), b.journalBody)
	var us []float64
	for i := 0; i < appends; i++ {
		key := fmt.Sprintf("%064x", i)
		d, err := b.timeCall("jobs.Journal.AppendCell", func() error { return j.AppendCell(key, body) })
		if err != nil {
			j.Close()
			return err
		}
		us = append(us, float64(d)/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	j, replay, err := jobs.OpenJournal(dir)
	if err != nil {
		return err
	}
	b.check(len(replay.Bodies) == appends && replay.TornBytes == 0, "journal replayed %d of %d cells, %d torn bytes", len(replay.Bodies), appends, replay.TornBytes)
	if err := j.Close(); err != nil {
		return err
	}
	b.set("jobs.journal.append_p50_us", "us", us)
	b.setTail("jobs.journal.append_p99_us", "us", us, 0.99)
	return nil
}
