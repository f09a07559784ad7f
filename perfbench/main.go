// Command perfbench is the repository's benchmark: three workloads run
// in-process against the simulator and its service, every output checked,
// and either the end-to-end metrics (untraced) or the per-layer metrics
// (traced) printed. BENCHMARK.json at the repository root lists the
// workloads and metrics; perfbench/run.sh builds this package and runs it
// from the repository root:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it name every metric with its unit, sample count, median and
// quartiles. The same record, with a host block, is written under
// .bench_build/perfbench/out/ and appended to history.jsonl there; traced
// runs also write their spans there. Any failed output check or ledger
// equation makes "correct" false and the exit code 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// outDir holds everything a run leaves behind, relative to the repository
// root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

// workloads maps each workload name to its constructor. The traced run of
// every workload adds the shared per-layer probes (probes.go).
var workloads = map[string]func() *workload{
	"suite":       suiteWorkload,
	"e9-stream":   e9Workload,
	"serve-mixed": serveWorkload,
}

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	workload := flag.String("workload", "", "workload: suite, e9-stream or serve-mixed")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 25, "how long the timed repetitions run")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	startup := flag.Bool("startup", false, "internal: start the process and the engine pool, then exit (set-up probe)")
	flag.Parse()

	if *startup {
		// The set-up probe: everything a fresh cadaptive process does
		// before its first experiment — runtime and package init, then
		// the shared engine pool.
		if engine.Shared().Workers() < 1 {
			return 1
		}
		return 0
	}
	newWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {suite|e9-stream|serve-mixed} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := newBench(spec, *workload, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := b.measureSetup(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	if b.traced {
		err = runTraced(b, newWorkload())
	} else {
		err = runUntraced(b, newWorkload())
	}
	if err != nil {
		// An error is a run that could not complete, not a wrong output:
		// no result is printed and the exit code says so.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := b.finish(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is a metric's sample record for the report and history.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// bench is one invocation: its parameters, its output checks, and the
// metrics it has measured so far.
type bench struct {
	spec     *benchSpec
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	ctx      context.Context
	start    time.Time
	golden   *golden
	tr       *tracer // nil in untraced runs

	journalBody  int       // job cell body size the service probe saw; the journal probe appends that much
	setupSamples []float64 // in-process set-up, one per set-up performed
	spawnSamples []float64 // fresh-process start, one per spawn

	mu                sync.Mutex // guards attempted and failed: client goroutines check too
	attempted, failed int64
	metrics           map[string]metric
	summaries         map[string]summary
}

func newBench(spec *benchSpec, workload string, seed uint64, seconds float64, traced bool) (*bench, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "out"), 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		spec:      spec,
		workload:  workload,
		seed:      seed,
		seconds:   seconds,
		traced:    traced,
		ctx:       context.Background(),
		start:     time.Now(),
		metrics:   map[string]metric{},
		summaries: map[string]summary{},
	}
	if traced {
		b.tr = newTracer(b.start)
	}
	return b, nil
}

// check records one checked output; a false ok is a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

// set records a metric from its samples: the reported value is their
// median, and the sample count and quartiles go to the report.
func (b *bench) set(name, unit string, samples []float64) {
	if len(samples) == 0 {
		b.check(false, "metric %s has no samples", name)
		return
	}
	med := median(samples)
	q1, q3 := quartiles(samples)
	b.metrics[name] = metric{Value: med, Unit: unit}
	b.summaries[name] = summary{Unit: unit, N: len(samples), Median: med, Q1: q1, Q3: q3}
}

// setValue records a metric measured once (a count, or a percentile over a
// pooled sample whose size is given as n).
func (b *bench) setValue(name, unit string, v float64, n int) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.summaries[name] = summary{Unit: unit, N: n, Median: v, Q1: v, Q3: v}
}

// setTail records the p-quantile of samples, and fails the run when fewer
// than ten samples lie beyond it (the percentile would not be measured).
func (b *bench) setTail(name, unit string, samples []float64, p float64) {
	b.check(tailOK(len(samples), p), "%s: %d samples leave fewer than 10 beyond the p%g", name, len(samples), p*100)
	if len(samples) == 0 {
		return
	}
	b.setValue(name, unit, percentile(samples, p), len(samples))
}

// repeat runs rep until the run has measured for b.seconds, always at least
// once; the rep in flight when the budget runs out finishes. Each rep starts
// from a collected heap, so one rep's garbage does not bill the next.
func (b *bench) repeat(rep func() error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < b.seconds; i++ {
		runtime.GC()
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}

// finish writes the report, the result file, the spans, and last the
// result line.
func (b *bench) finish(stdout *os.File) error {
	b.setSetup()
	b.setFailedFrac()
	names := make([]string, 0, len(b.summaries))
	for n := range b.summaries {
		names = append(names, n) //lint:ignore maporder names are sorted immediately below
	}
	sort.Strings(names)
	for _, n := range names {
		s := b.summaries[n]
		fmt.Fprintf(stdout, "%-40s %14.6g %-6s n=%d q1=%.6g q3=%.6g\n", n, s.Median, s.Unit, s.N, s.Q1, s.Q3)
	}
	fmt.Fprintf(stdout, "checks: %d attempted, %d failed\n", b.attempted, b.failed)

	// The result line carries exactly the metrics BENCHMARK.json lists for
	// this mode; the report and the result file carry everything.
	want := b.spec.EndToEnd
	if b.traced {
		want = b.spec.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]metric{}}
	for _, w := range want {
		m, ok := b.metrics[w.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
		line.Metrics[w.Name] = m
	}
	if line.Attempted < 1 {
		return fmt.Errorf("no output was checked")
	}
	if err := b.writeRecord(); err != nil {
		return err
	}
	if b.tr != nil {
		if err := b.tr.write(filepath.Join(outDir, "out", fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))); err != nil {
			return err
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", enc)
	return err
}

// setSetup reports setup_s: a fresh process's start (median over spawns)
// plus the workload's in-process set-up (one sample per set-up performed).
func (b *bench) setSetup() {
	if len(b.setupSamples) == 0 {
		b.set("setup_s", "s", b.spawnSamples)
		return
	}
	spawn := median(b.spawnSamples)
	samples := make([]float64, len(b.setupSamples))
	for i, s := range b.setupSamples {
		samples[i] = spawn + s
	}
	b.set("setup_s", "s", samples)
}

// setFailedFrac reports failed/attempted. In the untraced run this is not
// on the result line (its value is 0 on correct code, and the line carries
// failed and attempted anyway); the traced run prints it as a layer metric.
func (b *bench) setFailedFrac() {
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	b.setValue("failed_frac", "ratio", frac, int(b.attempted))
}

// writeRecord writes this run's full record and appends it to the history.
func (b *bench) writeRecord() error {
	rec := struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		Seconds   float64            `json:"seconds"`
		Traced    bool               `json:"traced"`
		Host      hostInfo           `json:"host"`
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]summary `json:"metrics"`
	}{b.workload, b.seed, b.seconds, b.traced, host(), b.failed == 0, b.attempted, b.failed, b.summaries}
	enc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", b.workload, b.seed, boolInt(b.traced))
	if err := os.WriteFile(filepath.Join(outDir, "out", name), append(enc, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "out", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(enc, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
