package lint

// Analyzers returns every shipped check, in reporting-name order.
// lockguard and hotpath are annotation-driven: they are no-ops in
// packages that carry no //lint:guardedby / //lint:hotpath annotations,
// so they need no scope entries.
func Analyzers() []*Analyzer {
	return []*Analyzer{ErrCheck, HotPath, LockGuard, MapOrder, MutexCopy, NoRand, NoRecover, NoTime, UnusedExport}
}

// DefaultScopes is the repository policy for where each check applies,
// keyed by check name with module-relative package paths. Checks without
// an entry run everywhere.
//
//   - norand runs everywhere except internal/xrand, the one package allowed
//     to own a generator (it wraps SplitMix64 and hands out seeded streams).
//   - norecover runs in the long-lived-process packages — the commands and
//     the engine/service layers beneath them — where one goroutine's
//     unrecovered panic kills cadaptived (or a mid-run CLI) outright.
//     Library and experiment code is excluded: it runs inside engine.Map,
//     whose runCell already contains cell panics.
//   - notime runs only in the result-producing packages: internal/core
//     builds the tables that golden files and BENCH_*.json snapshots are
//     compared against, and internal/service persists bodies in the
//     content-addressed cache. Timing/metrics code inside them must carry
//     //lint:ignore notime annotations.
//   - unusedexport runs only under internal/, the packages whose every
//     caller is in this module; cmd/, examples/ and perfbench/ are its
//     callers, not its subjects.
func DefaultScopes() map[string]Scope {
	return map[string]Scope{
		"norand":       {Exclude: []string{"internal/xrand"}},
		"norecover":    {Only: []string{"cmd", "internal/engine", "internal/jobs", "internal/service"}},
		"notime":       {Only: []string{"internal/core", "internal/jobs", "internal/service"}},
		"unusedexport": {Only: []string{"internal"}},
	}
}
