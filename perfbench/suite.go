package main

import (
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/core"
)

// spawns is how many fresh processes the set-up probe starts per run; their
// median is the process-start part of setup_s.
const spawns = 21

// workload is one of the benchmark's input sets. rep runs one timed,
// checked repetition and returns the wall time of its timed section and a
// byte image of its outputs (two repetitions at one seed must agree on it);
// report turns the repetitions' samples into the end-to-end metrics.
type workload struct {
	rep    func(b *bench) (wall float64, image string, err error)
	report func(b *bench)
}

// measureSetup times fresh starts of this binary in its set-up-probe mode:
// runtime and package initialisation and the engine pool, which is what a
// cadaptive process pays before its first experiment. It also loads the
// golden tables every workload checks against.
func (b *bench) measureSetup() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < spawns; i++ {
		start := time.Now()
		if out, err := exec.Command(exe, "-startup").CombinedOutput(); err != nil {
			return fmt.Errorf("set-up probe: %v: %s", err, out)
		}
		b.spawnSamples = append(b.spawnSamples, time.Since(start).Seconds())
	}
	b.golden, err = loadGolden()
	return err
}

// timedSection runs fn and returns its wall and CPU seconds.
func timedSection(fn func() error) (wall, cpu float64, err error) {
	c0, t0 := cpuTime(), time.Now()
	err = fn()
	return time.Since(t0).Seconds(), (cpuTime() - c0).Seconds(), err
}

// hostMetrics collects wall_s and cpu_s per repetition; peak RSS is read
// once, at report time, and covers the whole process.
type hostMetrics struct{ walls, cpus []float64 }

func (h *hostMetrics) add(wall, cpu float64) {
	fmt.Fprintf(os.Stderr, "perfbench: repetition %d: wall %.3fs, cpu %.3fs\n", len(h.walls)+1, wall, cpu)
	h.walls = append(h.walls, wall)
	h.cpus = append(h.cpus, cpu)
}

func (h *hostMetrics) report(b *bench) {
	b.set("wall_s", "s", h.walls)
	b.set("cpu_s", "s", h.cpus)
	b.setValue("peak_rss_mib", "MiB", peakRSSMiB(), 1)
}

// seedFree lists the experiments that draw no random numbers: their tables
// equal the golden ones at every seed.
var seedFree = map[string]bool{"E1": true, "E2": true, "E9": true, "E11": true, "E13": true, "A3": true, "A4": true, "A6": true}

// suiteWorkload is `cadaptive -exp all`: core.RunAllContext at the default
// trials and maxk, at the workload seed. At the default seed every table
// must equal the golden file, and at any other seed the seed-free ones
// must; at every seed, every repetition must render the same bytes as the
// first.
func suiteWorkload() *workload {
	var h hostMetrics
	var first string
	w := &workload{report: h.report}
	w.rep = func(b *bench) (float64, string, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = b.seed
		var tables []*core.Table
		wall, cpu, err := timedSection(func() error {
			_, err := b.timeCall("core.RunAllContext", func() error {
				var err error
				tables, err = core.RunAllContext(b.ctx, cfg)
				return err
			})
			return err
		})
		if err != nil {
			return 0, "", err
		}
		h.add(wall, cpu)
		b.check(len(tables) == len(core.Experiments()), "suite returned %d tables, want %d", len(tables), len(core.Experiments()))
		for _, t := range tables {
			if b.seed == defaultSeed || seedFree[t.ID] {
				b.check(b.golden.matches(t), "suite: %s differs from %s", t.ID, goldenPath)
			}
		}
		image := renderTables(tables)
		if first == "" {
			first = image
		} else {
			b.check(image == first, "suite: repetitions at seed %d rendered different tables", b.seed)
		}
		return wall, image, nil
	}
	return w
}

// e9Config is E9 at maxk 8: dims 32…1024, every rung streamed.
func e9Config(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.MaxK = 8
	return cfg
}

// e9Workload is `cadaptive -exp E9 -maxk 8` at the default worker count.
// E9 draws no random numbers, so its rows are checked against the golden
// rows (and the dim-1024 snapshot) at every seed.
func e9Workload() *workload {
	var h hostMetrics
	w := &workload{report: h.report}
	w.rep = func(b *bench) (float64, string, error) {
		var t *core.Table
		wall, cpu, err := timedSection(func() error {
			_, err := b.timeCall("core.RunContext/E9", func() error {
				var err error
				t, err = core.RunContext(b.ctx, "E9", e9Config(b.seed))
				return err
			})
			return err
		})
		if err != nil {
			return 0, "", err
		}
		h.add(wall, cpu)
		b.checkE9(t)
		return wall, t.FormatTSV(), nil
	}
	return w
}

// runUntraced measures the workload for the run's budget and reports its
// end-to-end metrics.
func runUntraced(b *bench, w *workload) error {
	if err := b.repeat(func() error {
		_, _, err := w.rep(b)
		return err
	}); err != nil {
		return err
	}
	w.report(b)
	return nil
}

// runTraced runs the workload once untraced and once traced — their wall
// difference is the tracing overhead, and their outputs must be
// byte-identical — then every per-layer probe.
func runTraced(b *bench, w *workload) error {
	tr := b.tr
	b.tr = nil
	untracedWall, untracedImage, err := w.rep(b)
	b.tr = tr
	if err != nil {
		return err
	}
	tracedWall, tracedImage, err := w.rep(b)
	if err != nil {
		return err
	}
	b.check(tracedImage == untracedImage, "%s: traced and untraced runs produced different outputs", b.workload)
	b.setValue("trace.untraced_wall_s", "s", untracedWall, 1)
	b.setValue("trace.traced_wall_s", "s", tracedWall, 1)
	b.setValue("trace.overhead_s", "s", tracedWall-untracedWall, 1)
	return runProbes(b)
}
