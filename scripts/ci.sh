#!/bin/sh
# CI gate: formatting, vet, the cadaptivelint determinism checks, build, the
# full test suite (shuffled), then a race-detector pass over the
# concurrency-sensitive packages (the engine and everything that fans out on
# it), including the worker-count determinism test. Run from the repo root:
#
#   ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

# tests_exist PATTERN PKG...: fail unless every |-separated alternative of
# the -run or -fuzz PATTERN names at least one test, benchmark, fuzz target
# or example in PKG... (go test -list), so renaming a test cannot silently
# empty a step.
tests_exist() {
    pattern=$1
    shift
    listed=$(go test -list "$pattern" "$@" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
    set -f
    old_ifs=$IFS
    IFS='|'
    for alt in $pattern; do
        if ! printf '%s\n' "$listed" | grep -Eq -- "$alt"; then
            echo "ci: pattern alternative '$alt' matches no test in $*" >&2
            exit 1
        fi
    done
    IFS=$old_ifs
    set +f
}

# run_tests PATTERN FLAGS PKG...: go test FLAGS -run PATTERN PKG..., after
# checking PATTERN with tests_exist. FLAGS is one word list ("-race -short").
run_tests() {
    pattern=$1
    flags=$2
    shift 2
    tests_exist "$pattern" "$@"
    # shellcheck disable=SC2086 # FLAGS is deliberately split into words
    go test $flags -run "$pattern" "$@"
}

# fuzz_smoke TARGET PKG: five seconds of fuzzing one target. -run '^$'
# skips the unit tests (already covered) so only the fuzzing engine runs.
fuzz_smoke() {
    tests_exist "$1" "$2"
    go test -run '^$' -fuzz "$1" -fuzztime 5s "$2"
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== cadaptivelint =="
# Zero findings repo-wide is the gate: the annotation-driven lockguard and
# hotpath contracts (see DESIGN.md "Concurrency & allocation contracts")
# fail the build alongside the seven structural checks, unusedexport among
# them.
go run ./cmd/cadaptivelint ./...

echo "== go vet (perfbench) =="
# perfbench is its own module, so ./... above never compiles it; a deletion
# that breaks the benchmark harness must fail here.
go -C perfbench vet ./...

echo "== hotpath/alloc consistency =="
# Every //lint:hotpath annotation must be backed by an AllocsPerRun test
# (//allocguard marker), and no marker may outlive its annotation.
run_tests 'TestHotpathAllocConsistency' -count=1 ./internal/lint/

echo "== unusedexport + Figure-1 odometer =="
# The unusedexport analyzer on its harness testdata and on the fixture
# module (references from another package), and the worst-case odometer
# against the recursive builders it replaced, with its zero-alloc guard.
run_tests 'TestUnusedExport|TestUnusedExportModule' -count=1 ./internal/lint/
run_tests 'TestOdometerOracle|TestOdometerNextZeroAlloc|TestWorstCaseBoxStreamMatchesProfile' -count=1 \
    ./internal/profile/ ./internal/matrix/ ./internal/sorting/

echo "== go build =="
go build ./...

echo "== go test =="
# -shuffle=on randomizes test order within each package, so tests that
# secretly depend on a sibling's side effects fail here instead of later.
go test -shuffle=on ./...

echo "== go test -race (short) =="
run_tests 'TestMap|TestNested|TestShared|TestGroup|TestTrialsDeterministicAcrossWorkers|TestRunAllDeterministicAcrossWorkers' \
    '-race -short' \
    ./internal/engine/ \
    ./internal/adaptivity/ \
    ./internal/core/

echo "== go test -race (service + paging properties) =="
run_tests 'TestService|TestCache|TestLRU|TestFIFO|TestOPT|TestHitsPlusMisses|TestShrink|TestClient' \
    '-race -short' \
    ./internal/service/ \
    ./internal/paging/

echo "== go test -race (fault injection) =="
go test -race -short ./internal/fault/

echo "== go test -race (sharded result cache) =="
# The sharded cache under concurrency: singleflight per shard, the
# stale-while-revalidate background refresh, the differential replay against
# the single-mutex oracle, and the eviction-policy adapters.
run_tests 'TestCacheDifferential|TestCacheBytesBound|TestCacheTTL|TestCacheSWR|TestCacheShardRouting|TestCacheDisabled|TestServiceTablesIdenticalAcrossShardCounts' \
    '-race -short -count=1' \
    ./internal/service/

echo "== go test -race (policy registry + adaptive kernels) =="
# The ReplacementPolicy registry end to end: ARC/2Q differential oracles,
# the box replay driver over every replay name (live kernels, the OPT
# cursor — including one OPTPlan replayed from several goroutines at once
# and its evict-on-miss reference — and the edge-case table), the
# registry-name plumbing through MeasureTracePolicy, the streamed box fold
# against a fold of the per-box ledger, the reference conformance suite
# over every registered policy, the one-pass LRU/OPT stack curves against
# the per-capacity kernels, and the OPT cursor's indexed resident heap
# against the lazy-deletion heap it replaced.
run_tests 'TestARC|Test2Q|TestTwoQ|TestPolicy|TestBoxReplay|TestOPTPlan|TestOPTBoxReplay|TestOPTCursorMatchesLazyHeap|TestMeasureTracePolicy|TestFoldMatchesLedger|TestStackCurve' \
    '-race -short -count=1' \
    ./internal/paging/ \
    ./internal/adaptivity/

echo "== go test -race (square replay) =="
# The square-semantics replays: the fresh-data repeated replay against its
# address-shifted reference, the served-count finisher's validation and
# early-stop regressions, and the trace-backed measurement across worker
# counts.
run_tests 'TestServedRepeat|TestSquareFinisher|TestReplayRangeHalts|TestReplayRepeatHalts|TestMeasureTrace' \
    '-race -short' \
    ./internal/paging/ \
    ./internal/adaptivity/

echo "== chaos smoke =="
# The deterministic fault storm: concurrent clients against a real server
# with every injection point armed at a fixed seed. Asserts process
# survival, no deadlock, valid statuses, metrics conservation, and
# post-retry result identity with a fault-free run. Under -race so the
# fault paths (panic containment, queue shedding) are also race-checked.
run_tests 'TestChaos' '-race -count=1' ./internal/service/

echo "== go test -race (durable batch jobs) =="
# The jobs layer end to end under the race detector: scheduler fairness,
# retry/poison accounting, journal replay, manager kill/resume, and the
# service-level jobs API including resume across server instances.
run_tests 'TestJob|TestJournal|TestSpec|TestRetry|TestTransient|TestCancel|TestSubmit|TestWeighted|TestKillRestartResume|TestResume|TestRestore|TestSchedulerFaults|TestServiceJobs|TestServiceHealthz' \
    '-race -count=1' \
    ./internal/jobs/ \
    ./internal/service/

echo "== kill-and-restart smoke =="
# The durability claim, end to end: SIGKILL a real cadaptived mid-job (no
# shutdown path runs), restart it on the same -jobs-dir, and assert the job
# completes while only the journal-missing cells recompute.
run_tests 'TestDaemonKillRestartResume' '-race -count=1' ./cmd/cadaptived/

echo "== go test -race (shared cache + smoothing) =="
# The smoothing package's tests include the streamed shuffled, perturbed
# and rotated sources against the materialising smoothings, from two
# goroutines that share each profile and its code and rotation tables
# read-only, as the engine workers of E3/E6/E7 do.
tests_exist 'TestSourcesMatchMaterialised' ./internal/smoothing/
go test -race -short \
    ./internal/sharedcache/ \
    ./internal/smoothing/

echo "== bench smoke =="
# One iteration of every benchmark so the bench harness can't bit-rot:
# this compiles and executes each bench body (including the paging
# kernel-vs-oracle replay benches and the streaming-pipeline benches)
# without measuring anything.
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== fuzz smoke =="
# Five seconds per fuzz target: enough to exercise the mutator on the
# checked-in corpora without stalling CI.
fuzz_smoke '^FuzzParseID$' ./internal/core/
fuzz_smoke '^FuzzReadTSV$' ./internal/profile/
fuzz_smoke '^FuzzParseIgnoreDirective$' ./internal/lint/
fuzz_smoke '^FuzzParseAnnotation$' ./internal/lint/
fuzz_smoke '^FuzzKernelsMatchOracles$' ./internal/paging/
fuzz_smoke '^FuzzAdaptivePoliciesMatchOracles$' ./internal/paging/
fuzz_smoke '^FuzzServedRepeatMatchesShiftedReplay$' ./internal/paging/
fuzz_smoke '^FuzzStackCurveMatchesKernels$' ./internal/paging/
fuzz_smoke '^FuzzOPTCursorMatchesLazyHeap$' ./internal/paging/
fuzz_smoke '^FuzzShardRouting$' ./internal/service/
fuzz_smoke '^FuzzJournalReplay$' ./internal/jobs/

echo "CI OK"
