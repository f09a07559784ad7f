package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/xrand"
)

// The serve-mixed script. Every repetition replays the same script (it
// depends only on the workload seed) against a fresh server, so repetitions
// measure the same traffic.
const (
	// requestsPerClient is sized so one repetition yields over 1000 hits
	// (p99 keeps ten samples beyond it) and over 100 leader runs (p90).
	requestsPerClient = 3000
	missEvery         = 20 // one request in 20 asks for a fresh key
	coalesceSteps     = 20 // steps where every client asks for one fresh key
	hotKeys           = 16
	jobSeeds          = 32
	jobPoll           = 5 * time.Millisecond
	jobDeadline       = 2 * time.Minute // a job still running then is a hang, not a slow run
	serveTrials       = 4
	serveMaxK         = 5
)

// cheapExperiments serve the hot set and the misses: each runs in a few
// milliseconds at trials 4, maxk 5, so a miss costs a run, not a suite.
var cheapExperiments = []string{"E1", "E5", "E8", "A5", "A6", "E10"}

// coalesceExperiments are the slower of the cheap experiments: a run lasts
// long enough that every client's request for the shared key arrives while
// the leader still runs.
var coalesceExperiments = []string{"A5", "A6", "E10"}

// jobExperiments × jobSeeds seeds are the batch job's cells.
var jobExperiments = []string{"E1", "E5", "A5"}

type runKey struct {
	exp  string
	seed uint64
}

func (k runKey) config() core.Config {
	return core.Config{Seed: k.seed, Trials: serveTrials, MaxK: serveMaxK}
}

type stepKind uint8

const (
	stepHit stepKind = iota
	stepMiss
	stepCoalesce
)

type step struct {
	key  runKey
	kind stepKind
	sync int // coalesce steps: the barrier index
}

// script is one repetition's traffic: the hot set the cache is warmed with,
// each client's request sequence, and the batch job.
type script struct {
	hot     []runKey
	clients [][]step
	job     jobs.Spec
}

// newScript derives the traffic from the workload seed. The hot set is
// fixed; misses, coalesced keys and the job's seed range are fresh per
// seed. Coalesce steps sit at the same positions in every client's
// sequence, and the clients meet at a barrier there so their requests for
// the shared key overlap.
func newScript(seed uint64, clients int) *script {
	s := &script{job: jobs.Spec{
		Experiments: jobExperiments,
		SeedStart:   xrand.Split(seed, "serve/job")>>1 | 1,
		SeedCount:   jobSeeds,
		Trials:      serveTrials,
		MaxKMin:     serveMaxK,
		MaxKMax:     serveMaxK,
	}}
	for i := 0; i < hotKeys; i++ {
		s.hot = append(s.hot, runKey{cheapExperiments[i%len(cheapExperiments)], uint64(i + 1)})
	}
	coalesceAt := map[int]int{}
	for j := 0; j < coalesceSteps; j++ {
		coalesceAt[(j+1)*requestsPerClient/(coalesceSteps+1)] = j
	}
	for c := 0; c < clients; c++ {
		rng := xrand.New(xrand.Split(seed, "serve/client", int64(c)))
		steps := make([]step, requestsPerClient)
		var free []int
		for i := range steps {
			if j, ok := coalesceAt[i]; ok {
				exp := coalesceExperiments[j%len(coalesceExperiments)]
				steps[i] = step{key: runKey{exp, xrand.Split(seed, "serve/coalesce", int64(j))}, kind: stepCoalesce, sync: j}
				continue
			}
			steps[i] = step{key: s.hot[rng.Intn(len(s.hot))], kind: stepHit}
			free = append(free, i)
		}
		rng.ShuffleInts(free)
		for n, i := range free[:requestsPerClient/missEvery] {
			// Experiments take turns, so the work a repetition does is
			// the same at every seed; only the keys are fresh.
			exp := cheapExperiments[n%len(cheapExperiments)]
			steps[i] = step{key: runKey{exp, xrand.Split(seed, "serve/miss", int64(c), int64(n))}, kind: stepMiss}
		}
		s.clients = append(s.clients, steps)
	}
	return s
}

// serveRun accumulates serve-mixed samples across repetitions.
type serveRun struct {
	host       hostMetrics
	script     *script
	refs       map[runKey]string // core.RunContext's TSV per key
	missRunMs  []float64         // core.RunContext time of each script miss key
	hitMs      []float64
	missMs     []float64
	coalMs     []float64
	reqPerS    []float64
	cellsPerS  []float64
	jobWall    []float64
	hitHandler []float64 // traced only: handler time of hit requests, µs
	hitNet     []float64 // traced only: client minus handler, µs
	missHandle []float64 // traced only: handler time of leader runs, ms
	last       metricsSnapshot
	bodyLen    int // mean size of the job's cell bodies
}

func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// serveWorkload is the service under mixed traffic: closed-loop clients
// (one per CPU, at most two) replay the script against an in-process
// server with a journaled jobs directory, while one batch job runs beside
// them.
func serveWorkload() *workload {
	sr := &serveRun{}
	return &workload{rep: sr.rep, report: sr.report}
}

func (sr *serveRun) report(b *bench) {
	sr.host.report(b)
	sr.reportLatency(b)
}

// reportLatency records the client-observed service metrics. They are
// per-layer metrics in BENCHMARK.json because the result line of every
// workload must carry every end-to-end metric, and only serve-mixed has
// requests; the untraced report still prints them.
func (sr *serveRun) reportLatency(b *bench) {
	b.set("serve.hit_p50_ms", "ms", sr.hitMs)
	b.setTail("serve.hit_p99_ms", "ms", sr.hitMs, 0.99)
	b.set("serve.miss_p50_ms", "ms", sr.missMs)
	b.setTail("serve.miss_p90_ms", "ms", sr.missMs, 0.90)
	b.set("serve.coalesced_p50_ms", "ms", sr.coalMs)
	b.set("serve.req_per_s", "1/s", sr.reqPerS)
	b.set("serve.job_cells_per_s", "1/s", sr.cellsPerS)
}

// reqIDHeader carries a traced request's span ID from the client to the
// benchmark's handler middleware, so the two spans pair up.
const reqIDHeader = "X-Perfbench-Span"

type spanIDKey struct{}

// taggingTransport copies the span ID from the request context into a
// header.
type taggingTransport struct{ next http.RoundTripper }

func (t taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	return t.next.RoundTrip(r)
}

// handlerSpan is one handler execution seen by the middleware.
type handlerSpan struct {
	parent int64
	dur    time.Duration
}

// response is one client-observed request; a negative latency marks a
// request that failed.
type response struct {
	id      int64
	latency time.Duration
	cached  bool
	coal    bool
}

// rep is one serve-mixed repetition: set-up (server, journal, listener,
// cache warm-up — timed as set-up), the timed section (the script and the
// batch job, concurrently, until both are done), then the checks.
func (sr *serveRun) rep(b *bench) (float64, string, error) {
	clients := clientCount()
	if sr.script == nil {
		sr.script = newScript(b.seed, clients)
	}
	sc := sr.script

	setupStart := time.Now()
	env, err := startServer(b)
	if err != nil {
		return 0, "", err
	}
	defer env.close(b)
	for _, k := range sc.hot {
		resp, err := env.client(0).Run(b.ctx, k.exp, k.config())
		if err != nil {
			return 0, "", fmt.Errorf("warming %v: %w", k, err)
		}
		env.record(b, k, resp.Table)
	}
	b.setupSamples = append(b.setupSamples, time.Since(setupStart).Seconds())

	// Timed section.
	c0, t0 := cpuTime(), time.Now()
	jc := env.client(clients)
	st, err := jc.SubmitJob(b.ctx, sc.job)
	if err != nil {
		return 0, "", fmt.Errorf("submitting the batch job: %w", err)
	}
	jobDone := make(chan jobOutcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(b.ctx, jobDeadline)
		defer cancel()
		jobDone <- pollJob(ctx, jc, st.ID, t0)
	}()

	barriers := make([]sync.WaitGroup, coalesceSteps)
	for i := range barriers {
		barriers[i].Add(clients)
	}
	responses := make([][]response, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			responses[c] = env.runClient(b, c, sc.clients[c], barriers)
		}(c)
	}
	wg.Wait()
	scriptWall := time.Since(t0)
	job := <-jobDone
	wall := time.Since(t0).Seconds()
	cpu := (cpuTime() - c0).Seconds()
	if job.err != nil {
		return 0, "", fmt.Errorf("polling the batch job: %w", job.err)
	}

	// Samples.
	sr.host.add(wall, cpu)
	completed := 0
	hitIDs, missIDs := map[int64]time.Duration{}, map[int64]bool{} // traced runs: span ID → outcome
	for _, rs := range responses {
		for _, r := range rs {
			if r.latency < 0 {
				continue // failed; counted by runClient
			}
			completed++
			ms := float64(r.latency) / 1e6
			switch {
			case r.cached:
				sr.hitMs = append(sr.hitMs, ms)
				if r.id != 0 {
					hitIDs[r.id] = r.latency
				}
			case r.coal:
				sr.coalMs = append(sr.coalMs, ms)
			default:
				sr.missMs = append(sr.missMs, ms)
				if r.id != 0 {
					missIDs[r.id] = true
				}
			}
		}
	}
	sr.reqPerS = append(sr.reqPerS, float64(completed)/scriptWall.Seconds())
	sr.cellsPerS = append(sr.cellsPerS, float64(job.status.Completed)/job.wall.Seconds())
	sr.jobWall = append(sr.jobWall, job.wall.Seconds())
	if len(hitIDs) > 0 {
		env.mu.Lock()
		for _, h := range env.handlers {
			if lat, ok := hitIDs[h.parent]; ok {
				sr.hitHandler = append(sr.hitHandler, float64(h.dur)/1e3)
				sr.hitNet = append(sr.hitNet, float64(lat-h.dur)/1e3)
			} else if missIDs[h.parent] {
				sr.missHandle = append(sr.missHandle, float64(h.dur)/1e6)
			}
		}
		env.mu.Unlock()
	}

	// Checks: the job finished every cell, every body served matches the
	// reference run of its key, and both /metrics ledgers balance.
	cells := len(sc.job.Experiments) * sc.job.SeedCount
	b.check(job.status.Status == jobs.JobCompleted && job.status.Completed == cells,
		"batch job ended %s with %d/%d cells completed, %d poisoned", job.status.Status, job.status.Completed, cells, job.status.Poisoned)
	full, err := jc.Job(b.ctx, st.ID, true)
	if err != nil {
		return 0, "", fmt.Errorf("fetching the job's tables: %w", err)
	}
	bodyBytes := 0
	for _, cell := range full.Cells {
		bodyBytes += len(cell.Table)
		k := runKey{cell.Experiment, cell.Seed}
		b.check(cell.State == jobs.CellDone.String() && cell.Trials == serveTrials && cell.MaxK == serveMaxK,
			"job cell %v: state %s (%s)", k, cell.State, cell.Error)
		env.record(b, k, cell.Table)
	}
	if len(full.Cells) > 0 {
		sr.bodyLen = bodyBytes / len(full.Cells)
	}
	if err := sr.checkBodies(b, env); err != nil {
		return 0, "", err
	}
	m, err := env.metrics(b.ctx)
	if err != nil {
		return 0, "", err
	}
	sr.last = m
	b.check(m.Cache.Hits+m.Cache.Misses+m.Cache.Coalesced+m.Service.Sheds == m.Service.Requests,
		"/metrics: hits %d + misses %d + coalesced %d + sheds %d != requests %d",
		m.Cache.Hits, m.Cache.Misses, m.Cache.Coalesced, m.Service.Sheds, m.Service.Requests)
	jl := m.Jobs
	b.check(jl.CellsInFlight == 0 && jl.CellsPending == 0 &&
		jl.CellsSubmitted == jl.CellsCompleted+jl.CellsPoisoned+jl.CellsCancelled &&
		jl.JobsSubmitted == jl.JobsActive+jl.JobsCompleted+jl.JobsPartial+jl.JobsCancelled,
		"/metrics: jobs ledger does not balance: %+v", jl)
	return wall, "", nil
}

// checkBodies compares every distinct key's served table with a direct
// core.RunContext run of the same key. The reference runs happen once per
// benchmark run (every repetition replays the same keys); their times are
// the service.miss.run_p50_ms probe.
func (sr *serveRun) checkBodies(b *bench, env *serverEnv) error {
	if sr.refs == nil {
		sr.refs = map[runKey]string{}
		misses := map[runKey]bool{}
		for _, steps := range sr.script.clients {
			for _, s := range steps {
				if s.kind == stepMiss {
					misses[s.key] = true
				}
			}
		}
		for _, k := range env.keyOrder {
			start := time.Now()
			t, err := core.RunContext(b.ctx, k.exp, k.config())
			if err != nil {
				return fmt.Errorf("reference run %v: %w", k, err)
			}
			if misses[k] {
				sr.missRunMs = append(sr.missRunMs, float64(time.Since(start))/1e6)
			}
			sr.refs[k] = t.FormatTSV()
		}
	}
	for _, k := range env.keyOrder {
		var t core.Table
		err := json.Unmarshal(env.bodies[k], &t)
		ref, ok := sr.refs[k]
		b.check(err == nil && ok && t.FormatTSV() == ref, "served table for %s seed %d differs from core.RunContext", k.exp, k.seed)
	}
	return nil
}

// jobOutcome is the batch job as the poller last saw it.
type jobOutcome struct {
	status *jobs.Status
	wall   time.Duration // submission to first terminal poll
	err    error
}

// pollJob polls the job at a fixed short interval until it is terminal, so
// completion time is not quantised by a growing backoff.
func pollJob(ctx context.Context, c *service.Client, id string, submitted time.Time) jobOutcome {
	tick := time.NewTicker(jobPoll)
	defer tick.Stop()
	for {
		st, err := c.Job(ctx, id, false)
		if err != nil {
			return jobOutcome{err: err}
		}
		if st.Status != jobs.JobRunning {
			return jobOutcome{status: st, wall: time.Since(submitted)}
		}
		<-tick.C
	}
}

// serverEnv is one repetition's server and the bodies it served.
type serverEnv struct {
	srv      *service.Server
	http     *http.Server // traced runs: the benchmark's own server around Handler()
	dir      string
	url      string
	httpc    *http.Client
	serveErr chan error

	mu       sync.Mutex
	handlers []handlerSpan
	bodies   map[runKey][]byte // first body served per key
	keyOrder []runKey
}

// tmpRoot is where journals live: inside the checkout, on its disk.
var tmpRoot = filepath.Join(outDir, "tmp")

func startServer(b *bench) (*serverEnv, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "jobs-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{JobsDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Shutdown closes the journal New opened; its own error adds nothing.
		_ = srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	env := &serverEnv{
		srv:      srv,
		dir:      dir,
		url:      "http://" + l.Addr().String(),
		serveErr: make(chan error, 1),
		bodies:   map[runKey][]byte{},
	}
	env.httpc = &http.Client{Transport: taggingTransport{&http.Transport{MaxIdleConnsPerHost: 4}}}
	serve := srv.Serve
	if b.tr != nil {
		// Traced: the benchmark's middleware times each handler call.
		env.http = &http.Server{Handler: env.middleware(b, srv.Handler())}
		serve = env.http.Serve
	}
	go func() { env.serveErr <- serve(l) }()
	return env, nil
}

func (env *serverEnv) middleware(b *bench, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		parent, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			parent = 0 // untagged requests (job polls, /metrics) have no client span
		}
		b.tr.record(0, parent, "service.handler "+r.URL.Path, start, d, "")
		if parent != 0 {
			env.mu.Lock()
			env.handlers = append(env.handlers, handlerSpan{parent, d})
			env.mu.Unlock()
		}
	})
}

func (env *serverEnv) client(seed int) *service.Client {
	c := service.NewClient(env.url)
	c.HTTPClient = env.httpc
	c.Seed = uint64(seed)
	return c
}

// record keeps the first body served for k and checks every later one
// against it byte for byte.
func (env *serverEnv) record(b *bench, k runKey, body []byte) {
	env.mu.Lock()
	first, seen := env.bodies[k]
	if !seen {
		env.bodies[k] = append([]byte(nil), body...)
		env.keyOrder = append(env.keyOrder, k)
	}
	env.mu.Unlock()
	if seen {
		b.check(bytes.Equal(first, body), "%s seed %d was served two different bodies", k.exp, k.seed)
	}
}

// runClient replays one client's steps closed-loop and returns what it saw;
// a request that fails after the client's retries is a failed operation.
func (env *serverEnv) runClient(b *bench, c int, steps []step, barriers []sync.WaitGroup) []response {
	cl := env.client(c)
	out := make([]response, 0, len(steps))
	for _, s := range steps {
		if s.kind == stepCoalesce {
			barriers[s.sync].Done()
			barriers[s.sync].Wait()
		}
		ctx := b.ctx
		var id int64
		if b.tr != nil {
			id = b.tr.newID()
			ctx = context.WithValue(ctx, spanIDKey{}, id)
		}
		start := time.Now()
		resp, err := cl.Run(ctx, s.key.exp, s.key.config())
		lat := time.Since(start)
		if err != nil {
			b.check(false, "client %d: %s seed %d: %v", c, s.key.exp, s.key.seed, err)
			out = append(out, response{latency: -1})
			continue
		}
		b.check(true, "")
		if b.tr != nil {
			b.tr.record(id, 0, "client.run", start, lat, outcomeName(resp))
		}
		out = append(out, response{id: id, latency: lat, cached: resp.Cached, coal: resp.Coalesced})
		env.record(b, s.key, resp.Table)
	}
	return out
}

func outcomeName(r *service.RunResponse) string {
	switch {
	case r.Cached:
		return "hit"
	case r.Coalesced:
		return "coalesced"
	}
	return "miss"
}

// metricsSnapshot is the part of GET /metrics the checks read.
type metricsSnapshot struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
	} `json:"cache"`
	Service struct {
		Requests int64 `json:"requests"`
		Sheds    int64 `json:"sheds"`
	} `json:"service"`
	Jobs jobs.Ledger `json:"jobs"`
}

func (env *serverEnv) metrics(ctx context.Context) (metricsSnapshot, error) {
	var m metricsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, env.url+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := env.httpc.Do(req)
	if err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.Unmarshal(body, &m)
}

// close shuts the server down (draining the jobs layer), waits for its
// serve loop to return, and removes the journal directory.
func (env *serverEnv) close(b *bench) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := env.srv.Shutdown(ctx)
	if env.http != nil && err == nil {
		err = env.http.Shutdown(ctx)
	}
	b.check(err == nil, "server shutdown: %v", err)
	if serr := <-env.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		b.check(false, "serve loop: %v", serr)
	}
	env.httpc.CloseIdleConnections()
	if err := os.RemoveAll(env.dir); err != nil {
		b.check(false, "removing %s: %v", env.dir, err)
	}
}
