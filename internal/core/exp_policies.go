package core

import (
	"fmt"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// This file implements the adaptive-policy experiments unlocked by the
// ReplacementPolicy registry: E12 (adaptivity gap by replacement policy —
// ROADMAP's "does Theorem 1's smoothing survive for adaptive policies?"
// question, with ARC/2Q from Consuegra et al.'s family replayed live
// against worst-case and i.i.d.-smoothed profiles) and E13 (the empirical
// smoothness curve Δfaults vs Δcapacity per Reineke & Salinger, "On the
// Smoothness of Paging Algorithms", across every registered policy).

func init() {
	register(Experiment{
		ID:      "E12",
		Source:  "ROADMAP: adaptive policies (Consuegra et al.) × Theorem 1",
		Summary: "Adaptivity gap of live ARC/2Q/LRU/FIFO kernels vs OPT and the square bound, on M_{8,4}(n) and under i.i.d. smoothing",
		Run:     runE12,
	})
	register(Experiment{
		ID:      "E13",
		Source:  "Reineke & Salinger (smoothness of paging)",
		Summary: "Empirical smoothness curve: fault-count sensitivity to capacity changes (Δfaults per Δcapacity, and Belady-anomaly sweep) across all registered policies",
		Run:     runE13,
	})
}

// e12KMax caps E12's sizes: every cell replays the materialized-scale
// MM-Scan reference stream through a live kernel (and "opt" materializes
// the trace outright), so k = 6 (n = 4096, T(n) = 262144 references) keeps
// the policy × trial grid affordable.
const e12KMax = 6

func runE12(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	spec := regular.MMScanSpec
	kMin, kMax := 3, cfg.MaxK
	if kMax > e12KMax {
		kMax = e12KMax
	}
	policies := paging.ReplayNames()

	t := &Table{
		ID:     "E12",
		Title:  "Adaptivity gap by replacement policy: live kernels vs the square bound, worst-case and i.i.d.-smoothed",
		Header: []string{"policy", "k", "n", "worst-case gap", "iid mean gap", "iid ci95"},
	}

	// "opt" replays the materialized synthetic trace: one read-only plan
	// per size, shared by the worst-case run and every i.i.d. cell.
	plans := make(map[int]*paging.OPTPlan, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		tr, err := regular.SyntheticTrace(spec, profile.Pow(4, k))
		if err != nil {
			return nil, err
		}
		if plans[k], err = paging.NewOPTPlan(tr); err != nil {
			return nil, err
		}
	}
	measure := func(pol string, k int, src profile.Source) (adaptivity.RunResult, error) {
		return adaptivity.MeasureTracePolicy(spec, profile.Pow(4, k), pol, plans[k], src, 0)
	}

	// Worst-case part: M_{8,4}(n) replayed deterministically (cycled when a
	// thrashing kernel needs more boxes than the profile holds) — serial,
	// one run per (policy, size).
	wcs, err := worstCases(kMin, kMax)
	if err != nil {
		return nil, err
	}
	wcGaps := make([][]float64, len(policies))
	for p, pol := range policies {
		wcGaps[p] = make([]float64, kMax-kMin+1)
		for k := kMin; k <= kMax; k++ {
			src, err := profile.NewSliceSource(wcs[k])
			if err != nil {
				return nil, err
			}
			res, err := measure(pol, k, src)
			if err != nil {
				return nil, fmt.Errorf("E12 %s k=%d: %w", pol, k, err)
			}
			wcGaps[p][k-kMin] = res.Gap()
		}
	}

	// i.i.d. part: box sizes drawn from the worst-case profile's own box
	// distribution (Theorem 1's strongest test) — one engine cell per
	// (policy, size, trial), laid out row-major.
	dists := make(map[int]xrand.Dist, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		d, err := xrand.WorstCaseBoxDist(8, 4, profile.Pow(4, k))
		if err != nil {
			return nil, err
		}
		dists[k] = d
	}
	type cell struct{ p, k, trial int }
	var cells []cell
	for p := range policies {
		for k := kMin; k <= kMax; k++ {
			for trial := 0; trial < cfg.Trials; trial++ {
				cells = append(cells, cell{p, k, trial})
			}
		}
	}
	g := engine.NewGroup().WithContext(cfg.Context())
	gaps := make([]float64, len(cells))
	if err := g.Map(len(cells), func(i, _ int) error {
		c := cells[i]
		rng := xrand.New(xrand.Split(cfg.Seed, "E12", int64(c.p), int64(c.k), int64(c.trial)))
		src := profile.FuncSource(func() int64 { return dists[c.k].Sample(rng) })
		res, err := measure(policies[c.p], c.k, src)
		if err != nil {
			return fmt.Errorf("E12 %s k=%d trial %d: %w", policies[c.p], c.k, c.trial, err)
		}
		gaps[i] = res.Gap()
		return nil
	}); err != nil {
		return nil, err
	}

	var notes []string
	idx := 0
	for p, pol := range policies {
		var wcCurve gapCurve
		for k := kMin; k <= kMax; k++ {
			kGaps := gaps[idx : idx+cfg.Trials]
			idx += cfg.Trials
			wcCurve.add(k, []float64{wcGaps[p][k-kMin]})
			s := stats.Summarize(kGaps)
			t.AddRow(pol, k, profile.Pow(4, k), wcGaps[p][k-kMin], s.Mean, s.CI95())
		}
		fit, err := wcCurve.slope()
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("%s: worst-case slope %+.3f/level", pol, fit.Beta))
	}
	notes = append(notes, "square is the paper's cleared-cache discretisation and pays the full log gap on its tailored adversary (slope exactly +1.0/level); the live kernels — classical and adaptive alike — carry state across box boundaries, so the clear-per-box trick never bites and their realized gaps stay Θ(1) on the same profile, and i.i.d. smoothing keeps every policy flat (Theorem 1's shape).")
	t.Note = joinNotes(notes)
	finishMetrics(t, g)
	return t, nil
}

// e13Sweep is the contiguous capacity range each policy's fault curve is
// traced over; the grid rows and the anomaly sweep both read from it.
const (
	e13SweepLo = int64(8)
	e13SweepHi = int64(136)
)

func runE13(cfg Config) (*Table, error) {
	const bw = 8
	dims := []int{64}
	if cfg.MaxK >= 6 {
		dims = append(dims, 128)
	}
	policies := append(paging.PolicyNames(), paging.OPTReplayName)
	gridMs := []int64{16, 32, 64, 128}

	t := &Table{
		ID:     "E13",
		Title:  "Empirical smoothness: MM-Scan trace fault counts vs capacity (B=8 words/block)",
		Header: []string{"dim", "policy", "M (blocks)", "faults", "Δfaults(M+1)", "Δfaults(M+8)"},
	}

	// One fault curve per (dim, policy) over the shared read-only traces:
	// the stack policies (lru, opt) in one cell each from a one-pass stack
	// curve, the others one cell per capacity in the sweep.
	nM := int(e13SweepHi - e13SweepLo + 1)
	traces := make([]*traceCurve, len(dims))
	for di, dim := range dims {
		tr, err := matrix.TraceMulScan(dim, bw)
		if err != nil {
			return nil, err
		}
		traces[di] = &traceCurve{tr: tr, faults: make([][]int64, len(policies))}
		for p := range policies {
			traces[di].faults[p] = make([]int64, nM)
		}
	}
	const wholeCurve = -1 // cell.mi of a stack policy's one-pass cell
	type cell struct{ di, p, mi int }
	var cells []cell
	for di := range dims {
		for p, pol := range policies {
			if paging.IsStackPolicy(pol) {
				cells = append(cells, cell{di, p, wholeCurve})
				continue
			}
			for mi := 0; mi < nM; mi++ {
				cells = append(cells, cell{di, p, mi})
			}
		}
	}
	g := engine.NewGroup().WithContext(cfg.Context())
	if err := g.Map(len(cells), func(i, _ int) error {
		c := cells[i]
		pol, tr := policies[c.p], traces[c.di].tr
		if c.mi == wholeCurve {
			curve, err := paging.StackCurve(pol, tr, e13SweepLo, e13SweepHi)
			if err != nil {
				return err
			}
			// The curve is monotone by construction, so the anomaly check
			// below cannot catch a bug in it; the kernels at the grid
			// capacities, which share no code with it, can.
			for _, m := range gridMs {
				faults, err := paging.RunPolicyFixed(pol, tr, m)
				if err != nil {
					return err
				}
				if got := curve[m-e13SweepLo]; got != faults {
					return fmt.Errorf("E13: %s stack curve gives %d faults at M=%d on dim %d, the kernel %d", pol, got, m, dims[c.di], faults)
				}
			}
			copy(traces[c.di].faults[c.p], curve)
			return nil
		}
		faults, err := paging.RunPolicyFixed(pol, tr, e13SweepLo+int64(c.mi))
		if err != nil {
			return err
		}
		traces[c.di].faults[c.p][c.mi] = faults
		return nil
	}); err != nil {
		return nil, err
	}

	var notes []string
	for di, dim := range dims {
		for p, pol := range policies {
			curve := traces[di].faults[p]
			for _, m := range gridMs {
				i := int(m - e13SweepLo)
				t.AddRow(dim, pol, m, curve[i], curve[i]-curve[i+1], curve[i]-curve[i+8])
			}
			// Belady-anomaly sweep: the largest single-step fault *increase*
			// under one extra block of capacity. LRU and OPT are monotone
			// (stack property / optimality), so anything positive there is a
			// kernel bug; FIFO and the adaptive policies may legitimately
			// show one.
			var anomaly int64
			for i := 0; i+1 < nM; i++ {
				if d := curve[i+1] - curve[i]; d > anomaly {
					anomaly = d
				}
			}
			notes = append(notes, fmt.Sprintf("dim %d %s: max anomaly %+d faults/+1 block", dim, pol, anomaly))
			if anomaly > 0 && paging.IsStackPolicy(pol) {
				return nil, fmt.Errorf("E13: %s shows a Belady anomaly (%d) at dim %d — stack policies are monotone", pol, anomaly, dim)
			}
		}
	}
	notes = append(notes, fmt.Sprintf("Δfaults(M+x) = faults(M) − faults(M+x) over M ∈ [%d, %d]: the discrete smoothness curve of Reineke & Salinger; anomaly > 0 means more capacity cost faults (Belady's anomaly).", e13SweepLo, e13SweepHi))
	t.Note = joinNotes(notes)
	finishMetrics(t, g)
	return t, nil
}

// traceCurve bundles one dim's shared trace with its per-policy fault
// curves over the E13 sweep.
type traceCurve struct {
	tr     *trace.Trace
	faults [][]int64
}
