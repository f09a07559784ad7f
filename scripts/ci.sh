#!/bin/sh
# CI gate: formatting, vet, the cadaptivelint determinism checks, build, the
# full test suite (shuffled), then a race-detector pass over the
# concurrency-sensitive packages (the engine and everything that fans out on
# it), including the worker-count determinism test. Run from the repo root:
#
#   ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

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
# fail the build alongside the six structural checks.
go run ./cmd/cadaptivelint ./...

echo "== hotpath/alloc consistency =="
# Every //lint:hotpath annotation must be backed by an AllocsPerRun test
# (//allocguard marker), and no marker may outlive its annotation.
go test -count=1 -run 'TestHotpathAllocConsistency' ./internal/lint/

echo "== go build =="
go build ./...

echo "== go test =="
# -shuffle=on randomizes test order within each package, so tests that
# secretly depend on a sibling's side effects fail here instead of later.
go test -shuffle=on ./...

echo "== go test -race (short) =="
go test -race -short \
    ./internal/engine/ \
    ./internal/adaptivity/ \
    ./internal/core/ \
    -run 'TestMap|TestNested|TestShared|TestGroup|TestTrialsDeterministicAcrossWorkers|TestRunAllDeterministicAcrossWorkers'

echo "== go test -race (service + paging properties) =="
go test -race -short \
    ./internal/service/ \
    ./internal/paging/ \
    -run 'TestService|TestCache|TestLRU|TestFIFO|TestOPT|TestHitsPlusMisses|TestShrink|TestClient'

echo "== go test -race (fault injection) =="
go test -race -short ./internal/fault/

echo "== go test -race (sharded result cache) =="
# The sharded cache under concurrency: singleflight per shard, the
# stale-while-revalidate background refresh, the differential replay against
# the single-mutex oracle, and the eviction-policy adapters.
go test -race -short \
    ./internal/service/ \
    -run 'TestCacheDifferential|TestCacheBytesBound|TestCacheTTL|TestCacheSWR|TestCacheShardRouting|TestCacheDisabled|TestServiceTablesIdenticalAcrossShardCounts' \
    -count=1

echo "== go test -race (policy registry + adaptive kernels) =="
# The ReplacementPolicy registry end to end: ARC/2Q differential oracles,
# the live-kernel box replay (PolicyStream/PolicyRun and the OPT plan,
# including one OPTPlan run from several goroutines at once), the
# registry-name plumbing through MeasureTracePolicy, the streamed box fold
# against a fold of the per-box ledger, the reference conformance suite
# over every registered policy, and the one-pass LRU/OPT stack curves
# against the per-capacity kernels.
go test -race -short \
    ./internal/paging/ \
    ./internal/adaptivity/ \
    -run 'TestARC|Test2Q|TestTwoQ|TestPolicy|TestOPTPlan|TestMeasureTracePolicy|TestFoldMatchesLedger|TestStackCurve' \
    -count=1

echo "== go test -race (square replay) =="
# The square-semantics replays: the fresh-data repeated replay against its
# address-shifted reference, the finisher's validation and early-stop
# regressions, and the trace-backed measurement across worker counts.
go test -race -short \
    ./internal/paging/ \
    ./internal/adaptivity/ \
    -run 'TestServedRepeat|TestSquareFinisher|TestReplayRangeHalts|TestReplayRepeatHalts|TestMeasureTrace'

echo "== chaos smoke =="
# The deterministic fault storm: concurrent clients against a real server
# with every injection point armed at a fixed seed. Asserts process
# survival, no deadlock, valid statuses, metrics conservation, and
# post-retry result identity with a fault-free run. Under -race so the
# fault paths (panic containment, queue shedding) are also race-checked.
go test -race -count=1 -run 'TestChaos' ./internal/service/

echo "== go test -race (durable batch jobs) =="
# The jobs layer end to end under the race detector: scheduler fairness,
# retry/poison accounting, journal replay, manager kill/resume, and the
# service-level jobs API including resume across server instances.
go test -race -count=1 -run 'TestJob|TestJournal|TestSpec|TestRetry|TestTransient|TestCancel|TestSubmit|TestWeighted|TestKillRestartResume|TestResume|TestRestore|TestSchedulerFaults|TestServiceJobs|TestServiceHealthz' \
    ./internal/jobs/ \
    ./internal/service/

echo "== kill-and-restart smoke =="
# The durability claim, end to end: SIGKILL a real cadaptived mid-job (no
# shutdown path runs), restart it on the same -jobs-dir, and assert the job
# completes while only the journal-missing cells recompute.
go test -race -count=1 -run 'TestDaemonKillRestartResume' ./cmd/cadaptived/

echo "== go test -race (shared cache + smoothing) =="
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
# checked-in corpora without stalling CI. -run '^$' skips the unit tests
# (already covered above) so only the fuzzing engine runs.
go test -run '^$' -fuzz '^FuzzParseID$' -fuzztime 5s ./internal/core/
go test -run '^$' -fuzz '^FuzzReadTSV$' -fuzztime 5s ./internal/profile/
go test -run '^$' -fuzz '^FuzzParseIgnoreDirective$' -fuzztime 5s ./internal/lint/
go test -run '^$' -fuzz '^FuzzParseAnnotation$' -fuzztime 5s ./internal/lint/
go test -run '^$' -fuzz '^FuzzKernelsMatchOracles$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzAdaptivePoliciesMatchOracles$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzServedRepeatMatchesShiftedReplay$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzStackCurveMatchesKernels$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzShardRouting$' -fuzztime 5s ./internal/service/
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 5s ./internal/jobs/

echo "CI OK"
