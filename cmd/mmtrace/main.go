// Command mmtrace generates matrix-multiply block traces and replays them
// against caches.
//
// Usage:
//
//	mmtrace -alg scan -dim 128 -block 8 -stats          # trace statistics
//	mmtrace -alg inplace -dim 128 -lru 256              # DAM misses at fixed M
//	mmtrace -alg inplace -dim 128 -lru 256 -policy arc  # same replay, ARC kernel
//	mmtrace -alg scan -dim 256 -profile p.tsv -policy 2q # profile replay, live kernel
//	mmtrace -alg scan -dim 128 -worstcase -reps 16      # multiplies under Fig-1 profile
//	mmtrace -alg scan -dim 1024 -stream -worstcase      # same, streaming (no materialized trace)
//	mmtrace -alg scan -dim 512 -worstcase -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With -stream the trace is regenerated into each consumer instead of
// being built once in memory, so sizes whose materialized trace would not
// fit stream fine (the -opt replay is the one consumer that inherently
// needs the full trace and refuses -stream).
//
// -policy selects the replacement kernel: any registered paging policy
// (see paging.PolicyNames) for the -lru fixed-capacity replay, plus
// "square" (the default cleared-cache square semantics) or "opt"
// (clairvoyant Belady replay) for the -profile replay. Unknown names are
// rejected with the accepted list.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run (the
// heap profile after it finishes) for `go tool pprof`; they leave the
// output unchanged.
//
// This is the substrate behind experiments E9 and E11.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/dp"
	"repro/internal/gep"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/pprofcli"
	"repro/internal/profile"
	"repro/internal/sorting"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmtrace:", err)
		os.Exit(1)
	}
}

// distinctSink counts references, leaves, and distinct blocks without
// storing the trace.
type distinctSink struct {
	trace.CountingSink
	seen     []bool
	distinct int64
}

func (d *distinctSink) Access(block int64) {
	d.CountingSink.Access(block)
	for block >= int64(len(d.seen)) {
		d.seen = append(d.seen, make([]bool, len(d.seen)+1024)...)
	}
	if !d.seen[block] {
		d.seen[block] = true
		d.distinct++
	}
}

func (d *distinctSink) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		d.Access(lo + i)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("mmtrace", flag.ContinueOnError)
	var (
		alg       = fs.String("alg", "scan", "scan | inplace | strassen | fwscan | fwinplace | lcs | mergesort")
		dim       = fs.Int("dim", 128, "matrix dimension (power of two)")
		block     = fs.Int64("block", 8, "words per block")
		stats     = fs.Bool("stats", false, "print trace statistics")
		lru       = fs.Int64("lru", 0, "replay under a fixed-capacity cache with this many blocks (kernel chosen by -policy, default lru)")
		policy    = fs.String("policy", "", "replacement policy for the -lru and -profile replays (\"\" = lru / square respectively); one of "+strings.Join(paging.ReplayNames(), ", "))
		opt       = fs.Bool("opt", false, "also replay under Belady OPT (with -lru; needs a materialized trace)")
		worstcase = fs.Bool("worstcase", false, "count multiplies completed within the Figure-1 profile")
		reps      = fs.Int("reps", 16, "repetitions for -worstcase")
		profPath  = fs.String("profile", "", "replay the trace against a TSV square profile (e.g. from profilegen)")
		stream    = fs.Bool("stream", false, "stream the trace into each consumer instead of materializing it")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate -policy up front so a typo fails before any trace is built.
	if *policy != "" && !slices.Contains(paging.ReplayNames(), *policy) {
		return fmt.Errorf("-policy %q is not an accepted replay policy (have %v)", *policy, paging.ReplayNames())
	}

	var emit func(trace.Sink) error
	switch *alg {
	case "scan":
		emit = func(s trace.Sink) error { return matrix.EmitMulScan(*dim, *block, s) }
	case "inplace":
		emit = func(s trace.Sink) error { return matrix.EmitMulInPlace(*dim, *block, s) }
	case "strassen":
		emit = func(s trace.Sink) error { return matrix.EmitMulStrassen(*dim, *block, s) }
	case "fwscan":
		emit = func(s trace.Sink) error { return gep.EmitFWScan(*dim, *block, s) }
	case "fwinplace":
		emit = func(s trace.Sink) error { return gep.EmitFWInPlace(*dim, *block, s) }
	case "lcs":
		emit = func(s trace.Sink) error { return dp.EmitLCS(*dim, *block, s) }
	case "mergesort":
		emit = func(s trace.Sink) error { return sorting.EmitMergeSort(*dim, *block, s) }
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}

	stopProfiles, err := pprofcli.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); retErr == nil {
			retErr = err
		}
	}()

	// Without -stream, materialize once and replay the trace into every
	// consumer.
	var tr *trace.Trace
	replay := emit
	if !*stream {
		b := &trace.Builder{}
		if err := emit(b); err != nil {
			return err
		}
		tr = b.Build()
		replay = func(s trace.Sink) error {
			trace.Replay(tr, s)
			return nil
		}
	}
	// measure streams one emission through a counting sink; with a
	// materialized trace it reads the stored summary instead.
	measure := func() (refs, leaves, maxBlock int64, err error) {
		if tr != nil {
			return int64(tr.Len()), tr.Leaves(), tr.MaxBlock(), nil
		}
		c := &trace.CountingSink{}
		if err := emit(c); err != nil {
			return 0, 0, 0, err
		}
		return c.Refs, c.Leaves, c.MaxBlock, nil
	}

	did := false
	if *stats {
		fmt.Fprintf(stdout, "algorithm=%s dim=%d B=%d\n", *alg, *dim, *block)
		if tr != nil {
			fmt.Fprintf(stdout, "references=%d distinct-blocks=%d base-cases=%d\n",
				tr.Len(), tr.DistinctBlocks(), tr.Leaves())
		} else {
			d := &distinctSink{}
			if err := emit(d); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "references=%d distinct-blocks=%d base-cases=%d\n",
				d.Refs, d.distinct, d.Leaves)
		}
		did = true
	}
	if *lru > 0 {
		name := *policy
		if name == "" {
			name = "lru"
		}
		if name == paging.SquareReplayName {
			return fmt.Errorf("-policy square is the cleared-cache profile replay; it has no fixed-capacity form (use -profile)")
		}
		refs, _, _, err := measure()
		if err != nil {
			return err
		}
		var misses int64
		if tr != nil {
			if misses, err = paging.RunPolicyFixed(name, tr, *lru); err != nil {
				return err
			}
		} else {
			if paging.NeedsPlan(name) {
				return fmt.Errorf("-policy %s needs the full trace for the next-use precomputation; drop -stream", name)
			}
			p, err := paging.NewReplacementPolicy(name, *lru)
			if err != nil {
				return err
			}
			if err := emit(paging.CacheSink{Cache: p}); err != nil {
				return err
			}
			misses = p.Misses()
		}
		label := strings.ToUpper(name)
		fmt.Fprintf(stdout, "%s(M=%d blocks): %d misses (%.1f%% of references)\n",
			label, *lru, misses, 100*float64(misses)/float64(refs))
		if *opt && name != paging.OPTReplayName {
			if tr == nil {
				return fmt.Errorf("-opt needs the full trace for the next-use precomputation; drop -stream")
			}
			om, err := paging.RunPolicyFixed(paging.OPTReplayName, tr, *lru)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "OPT(M=%d blocks): %d misses (%s/OPT = %.2f)\n", *lru, om, label, float64(misses)/float64(om))
		}
		did = true
	}
	if *worstcase {
		// The matrix algorithms stream their worst-case profile (dim-4096
		// scale profiles are never materialized); the others materialize the
		// profile and stream it through a cycling source.
		var (
			boxSrc   profile.Source
			nBoxes   int64
			duration int64
			err      error
		)
		switch *alg {
		case "scan", "inplace", "strassen":
			boxSrc, nBoxes, duration, err = matrix.WorstCaseBoxStream(*dim, *block)
		case "fwscan", "fwinplace", "mergesort":
			var wc *profile.SquareProfile
			if *alg == "mergesort" {
				wc, err = sorting.WorstCaseProfile(*dim, *block)
			} else {
				wc, err = gep.WorstCaseProfile(*dim, *block)
			}
			if err == nil {
				nBoxes, duration = int64(wc.Len()), wc.Duration()
				boxSrc, err = profile.NewSliceSource(wc)
			}
		default:
			return fmt.Errorf("-worstcase has no matched profile for %q", *alg)
		}
		if err != nil {
			return err
		}
		refs, _, maxBlock, err := measure()
		if err != nil {
			return err
		}
		served, err := paging.ServedRepeat(replay, maxBlock, boxSrc, nBoxes, *reps)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "worst-case profile: %d boxes, %d I/Os; %s completed %d multiplies\n",
			nBoxes, duration, *alg, served/refs)
		did = true
	}
	if *profPath != "" {
		pf, err := os.Open(*profPath)
		if err != nil {
			return err
		}
		prof, err := profile.ReadTSV(pf)
		pf.Close()
		if err != nil {
			return err
		}
		if prof.Len() == 0 {
			return fmt.Errorf("profile %s is empty", *profPath)
		}
		src, err := profile.NewSliceSource(prof)
		if err != nil {
			return err
		}
		name := *policy
		if name == "" {
			name = paging.SquareReplayName
		}
		var plan *paging.OPTPlan
		if paging.NeedsPlan(name) {
			if tr == nil {
				return fmt.Errorf("-policy %s needs the full trace for the next-use precomputation; drop -stream", name)
			}
			if plan, err = paging.NewOPTPlan(tr); err != nil {
				return err
			}
		}
		var tally boxTally
		q, err := paging.NewBoxReplay(name, plan, src, 0, tally.add)
		if err != nil {
			return err
		}
		_, _, maxBlock, err := measure()
		if err != nil {
			return err
		}
		q.Reserve(maxBlock)
		if err := replay(q); err != nil {
			return err
		}
		if err := q.Finish(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "custom profile %s (%d boxes, cycled as needed) under %s:\n", *profPath, prof.Len(), name)
		fmt.Fprintf(stdout, "boxes used=%d IOs=%d base-cases completed=%d\n",
			tally.boxes, tally.ios, tally.leaves)
		did = true
	}
	if !did {
		return fmt.Errorf("nothing to do: pass -stats, -lru, -worstcase, or -profile")
	}
	return nil
}

// boxTally counts the boxes a profile replay closes, with their I/Os and
// base cases, without keeping a per-box ledger.
type boxTally struct{ boxes, ios, leaves int64 }

func (t *boxTally) add(s paging.BoxStat) {
	t.boxes++
	t.ios += s.IOs
	t.leaves += s.Leaves
}
