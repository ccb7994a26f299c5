package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mstsearch"
	"mstsearch/internal/server"
)

const (
	setupReps    = 5               // setups per run; setup_s is their quiet quartile
	recoverReps  = 9               // reopens per run, at least; recover_s is their quiet quartile
	recoverTime  = 2 * time.Second // and at least this much time spent reopening
	warmQueries  = 32              // warm-up queries at the end of each setup
	replayCount  = 64              // queries replayed into the engine by the traced run
	kernelRepeat = 20              // timed calls per (query, answer) pair
)

// fleetSeed generates every run's fleet: the data is part of the
// workload's definition, and --seed varies the traffic over it (the
// queries, the appends and the gate's sample). From one GSTD fleet to
// the next, the N-tree's rebuild cost alone moves by 10-30 %, which
// would swamp the differences between two commits.
const fleetSeed = 1

// errDegraded marks an answer a node or I/O budget cut short.
var errDegraded = errors.New("degraded answer")

// served is a store behind the HTTP server on a loopback listener, and
// the client that drives it.
type served struct {
	srv       *server.Server
	hs        *http.Server
	done      chan struct{}
	cl        *server.Client
	transport *http.Transport
	base      string
}

// serve starts the server with mstserve's defaults over the store.
func serve(s store, tr *tracer) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var engine server.Engine = s
	if tr != nil {
		engine = &tracedEngine{Engine: s, t: tr}
	}
	srv := server.NewEngine(engine, server.DefaultConfig())
	var h http.Handler = srv
	if tr != nil {
		h = tr.handler(srv)
	}
	sv := &served{
		srv:       srv,
		hs:        &http.Server{Handler: h},
		done:      make(chan struct{}),
		transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		base:      "http://" + ln.Addr().String(),
	}
	// One attempt per call: a shed request counts as failed instead of
	// hiding behind the client's retries.
	sv.cl = &server.Client{BaseURL: sv.base, HTTP: &http.Client{Transport: sv.transport}, MaxAttempts: 1}
	go func() {
		defer close(sv.done)
		_ = sv.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return sv, nil
}

// close stops the listener, drains the server and waits for it to exit.
func (sv *served) close() {
	_ = sv.hs.Close()
	<-sv.done
	sv.srv.Close()
	sv.transport.CloseIdleConnections()
}

// checkpoint asks the server to fold the WAL into a snapshot. The
// client has no call for the admin route, so it is posted directly.
func (sv *served) checkpoint(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.base+"/admin/checkpoint", http.NoBody)
	if err != nil {
		return err
	}
	resp, err := sv.cl.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint: http %d", resp.StatusCode)
	}
	return nil
}

// query builds the i-th query of a stream: an 8-sample random walk over
// a Window-wide interval inside the fleet's time span [0, 1]. The
// interval is taken from the sample times themselves, so the query
// covers it exactly.
func (w workload) query(rng *rand.Rand, i int) server.QueryRequest {
	const samples = 8
	x, y := rng.Float64(), rng.Float64()
	t1 := rng.Float64() * (1 - w.Window)
	dt := w.Window / (samples - 1)
	step := w.Window / 8
	q := server.TrajectoryJSON{Samples: make([][3]float64, samples)}
	for j := 0; j < samples; j++ {
		x += (rng.Float64() - 0.5) * step
		y += (rng.Float64() - 0.5) * step
		q.Samples[j] = [3]float64{x, y, t1 + float64(j)*dt}
	}
	req := server.QueryRequest{
		Query: q, T1: q.Samples[0][2], T2: q.Samples[samples-1][2], K: w.K,
		Metric: w.Metrics[i%len(w.Metrics)],
	}
	if req.Metric == "lcss" || req.Metric == "edr" {
		req.MetricEps = w.Eps
	}
	return req
}

// request converts a wire query into the engine's request.
func request(req server.QueryRequest) (mstsearch.Request, error) {
	q := fromWire(req.Query)
	m, err := mstsearch.ParseMetric(req.Metric)
	if err != nil {
		return mstsearch.Request{}, err
	}
	return mstsearch.Request{
		Q: &q, Interval: mstsearch.Interval{T1: req.T1, T2: req.T2}, K: req.K,
		Metric: m, MetricEps: req.MetricEps, Options: mstsearch.DefaultOptions(),
	}, nil
}

// appender streams location updates: each append extends a random
// trajectory one sampling step past its current end. Only one goroutine
// appends at a time, so the state needs no lock; the acknowledged
// samples are what the reopen must read back.
type appender struct {
	rng   *rand.Rand
	ids   []mstsearch.ID
	last  map[mstsearch.ID]mstsearch.Sample
	dt    float64
	acked map[mstsearch.ID][]mstsearch.Sample
	count int
}

func newAppender(seed int64, fleet []mstsearch.Trajectory) *appender {
	a := &appender{
		rng:   newRand(seed ^ 0x5eed),
		last:  make(map[mstsearch.ID]mstsearch.Sample, len(fleet)),
		acked: make(map[mstsearch.ID][]mstsearch.Sample),
	}
	for _, tr := range fleet {
		a.ids = append(a.ids, tr.ID)
		a.last[tr.ID] = tr.Samples[len(tr.Samples)-1]
		a.dt = tr.Samples[1].T - tr.Samples[0].T
	}
	return a
}

// next picks the trajectory and the sample of the next append.
func (a *appender) next() (mstsearch.ID, mstsearch.Sample) {
	id := a.ids[a.rng.Intn(len(a.ids))]
	p := a.last[id]
	return id, mstsearch.Sample{
		X: math.Min(1, math.Max(0, p.X+(a.rng.Float64()-0.5)*0.01)),
		Y: math.Min(1, math.Max(0, p.Y+(a.rng.Float64()-0.5)*0.01)),
		T: p.T + a.dt,
	}
}

func (a *appender) ack(id mstsearch.ID, s mstsearch.Sample) {
	a.last[id] = s
	a.acked[id] = append(a.acked[id], s)
	a.count++
}

// op appends through the HTTP API.
func (a *appender) op(cl *server.Client) opFunc {
	return func(ctx context.Context, _ int) error {
		id, s := a.next()
		if _, err := cl.Append(ctx, server.AppendRequest{ID: uint32(id), Sample: [3]float64{s.X, s.Y, s.T}}); err != nil {
			return err
		}
		a.ack(id, s)
		return nil
	}
}

// apply appends n samples straight to the store.
func (a *appender) apply(e server.Engine, n int) error {
	for i := 0; i < n; i++ {
		id, s := a.next()
		if err := e.AppendSample(id, s); err != nil {
			return fmt.Errorf("append to trajectory %d: %w", id, err)
		}
		a.ack(id, s)
	}
	return nil
}

// tally counts failed operations by cause.
type tally struct{ errors, shed, degraded atomic.Int64 }

func (t *tally) note(err error) error {
	var apiErr *server.APIError
	switch {
	case err == nil:
	case errors.Is(err, errDegraded):
		t.degraded.Add(1)
	case errors.As(err, &apiErr) && (apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable):
		t.shed.Add(1)
	default:
		t.errors.Add(1)
	}
	return err
}

// runner holds the state of one run.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	tr      *tracer // nil when untraced
	scratch string

	fleet []mstsearch.Trajectory
	ids   []mstsearch.ID
	s     store
	sv    *served
	app   *appender
	fails tally

	attempted, failed int
	queries, appends  latencies
	checkpointMS      float64 // the final checkpoint, through HTTP
}

// The end-to-end rates and latency percentiles are the quiet quartiles
// (quietTime, quietRate) across windows of a phase, so that a burst of
// CPU taken by other guests of a shared host moves them less than it
// would move a whole-run figure. A window is at least minWindow long
// and, for the open-loop latencies, holds at least minWindowCalls
// scheduled calls, so that its p90 is a percentile and not the window's
// maximum.
const (
	minWindow      = 1500 * time.Millisecond
	minWindowCalls = 50
)

// latencies gathers the open-loop calls of one operation type.
type latencies struct {
	all              []float64 // milliseconds, every successful call
	p50s, p90s, p99s []float64 // per-window quantiles
	late             []float64 // generator lateness, milliseconds
}

func (l *latencies) add(res openResult) {
	for _, c := range res.calls {
		l.all = append(l.all, ms(c.latency))
	}
	l.p50s = append(l.p50s, res.windowQuantiles(0.50)...)
	l.p90s = append(l.p90s, res.windowQuantiles(0.90)...)
	l.p99s = append(l.p99s, res.windowQuantiles(0.99)...)
	l.late = append(l.late, durationsMS(res.late)...)
}

func (r *runner) phase(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// queryOp sends one query through sv and classifies the outcome.
func (r *runner) queryOp(ctx context.Context, sv *served, req server.QueryRequest) error {
	resp, err := sv.cl.Query(ctx, req)
	if err == nil && resp.Degraded {
		err = errDegraded
	}
	return r.fails.note(err)
}

// setup builds the store, enables the warm pool, starts the server and
// warms it up; it runs setupReps times and keeps the last store.
func (r *runner) setup(ctx context.Context) (float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(r.scratch, fmt.Sprintf("store-%d", rep))
		start := time.Now()
		s, err := r.w.build(dir, r.fleet, r.tr)
		if err != nil {
			return 0, err
		}
		if r.tr != nil {
			for _, db := range databases(s) {
				db.SetPagerWrapper(r.tr.wrapPager)
			}
		}
		s.EnableWarmBuffer()
		sv, err := serve(s, r.tr)
		if err != nil {
			_ = s.Close()
			return 0, err
		}
		if err := r.warm(ctx, sv); err != nil {
			sv.close()
			_ = s.Close()
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep < setupReps-1 {
			sv.close()
			if err := s.Close(); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
			continue
		}
		r.s, r.sv = s, sv
	}
	return quietTime(times), nil
}

// warm sends the warm-up queries through sv.
func (r *runner) warm(ctx context.Context, sv *served) error {
	rng := newRand(r.seed*7 + 1)
	for i := 0; i < warmQueries; i++ {
		if _, err := sv.cl.Query(ctx, r.w.query(rng, i)); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	return nil
}

// appendsBeside runs the open-loop append stream through sv for d
// beside fn, on its own goroutine, when the workload writes during its
// queries. Only timed streams count toward the append latencies: beside
// the closed-loop clients an append waits behind as many queries as the
// host can serve, so its latency measures that load, not the append.
func (r *runner) appendsBeside(ctx context.Context, sv *served, d time.Duration, timed bool, fn func()) {
	if r.w.AppendRate <= 0 {
		fn()
		return
	}
	var wg sync.WaitGroup
	var res openResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := int(r.w.AppendRate * d.Seconds())
		res = openLoop(ctx, r.w.AppendRate, n, 1, 2*time.Second, r.countFails(r.app.op(sv.cl)))
	}()
	fn()
	wg.Wait()
	if !timed {
		res.calls, res.late = nil, nil
	}
	r.addAppends(res)
}

func (r *runner) countFails(op opFunc) opFunc {
	return func(ctx context.Context, i int) error { return r.fails.note(op(ctx, i)) }
}

func (r *runner) addAppends(res openResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.appends.add(res)
}

// closed runs the closed-loop query clients against sv for d and
// returns the queries per second of each window.
func (r *runner) closed(ctx context.Context, sv *served, d time.Duration, stream int64) []float64 {
	rngs := make([]*rand.Rand, r.w.QueryClients)
	for c := range rngs {
		rngs[c] = newRand(r.seed*1000 + stream*100 + int64(c))
	}
	var res closedResult
	r.appendsBeside(ctx, sv, d, false, func() {
		res = closedLoop(ctx, d, r.w.QueryClients, func(ctx context.Context, c, i int) error {
			return r.queryOp(ctx, sv, r.w.query(rngs[c], i))
		})
	})
	r.attempted += len(res.done) + res.failed
	r.failed += res.failed
	return res.rates(minWindow)
}

// open runs the fixed-rate query stream for d, with appends beside it.
func (r *runner) open(ctx context.Context, d time.Duration, stream int64) {
	workers := 2
	if r.w.AppendRate > 0 {
		workers = 1
	}
	n := int(r.w.QueryRate * d.Seconds())
	reqs := make([]server.QueryRequest, n)
	rng := newRand(r.seed*31 + 17 + stream*1000)
	for i := range reqs {
		reqs[i] = r.w.query(rng, i)
	}
	var res openResult
	r.appendsBeside(ctx, r.sv, d, true, func() {
		res = openLoop(ctx, r.w.QueryRate, n, workers, 2*time.Second, func(ctx context.Context, i int) error {
			return r.queryOp(ctx, r.sv, reqs[i])
		})
	})
	r.attempted += res.attempted
	r.failed += res.failed
	r.queries.add(res)
}

// tracedClosed is the closed-loop phase of a traced run, in four
// sub-phases: untraced, traced, traced, untraced, so that drift across
// the phase (warm-up, pool state, the host) cancels out of
// trace.overhead. The untraced sub-phases go to a second server over the
// same store, with neither the handler nor the Engine wrapper, so the
// overhead prices both wrappers, the Options.Trace hook and the
// recording. The pager and WAL-file wrappers stay under the store
// throughout (installing or removing a pager wrapper rebuilds the warm
// pool); with the tracer off they cost one atomic load per page read or
// WAL write. The registry snapshot is taken as the first traced
// sub-phase starts, so its deltas also cover the last untraced one: the
// per-layer metrics taken from them are ratios over one traffic mix, or
// counts that must stay 0. The tracer is on when it returns.
func (r *runner) tracedClosed(ctx context.Context) (untracedQPS, tracedQPS float64, before mstsearch.MetricsSnapshot, err error) {
	plain, err := serve(r.s, nil)
	if err != nil {
		return 0, 0, before, err
	}
	defer plain.close()
	if err := r.warm(ctx, plain); err != nil {
		return 0, 0, before, err
	}
	d := r.phase(0.1)
	u1 := r.closed(ctx, plain, d, 1)
	before = registry()
	r.tr.on.Store(true)
	t1 := r.closed(ctx, r.sv, d, 2)
	t2 := r.closed(ctx, r.sv, d, 3)
	r.tr.on.Store(false)
	u2 := r.closed(ctx, plain, d, 4)
	r.tr.on.Store(true)
	return quietRate(append(u1, u2...)), quietRate(append(t1, t2...)), before, nil
}

// solo runs the open-loop append phase of a workload that does not
// write beside its reads.
func (r *runner) solo(ctx context.Context) {
	if r.w.SoloAppends > 0 {
		r.addAppends(openLoop(ctx, r.w.SoloRate, r.w.SoloAppends, 1, 2*time.Second, r.countFails(r.app.op(r.sv.cl))))
	}
}

// checkpoint folds a durable store's WAL once, through the HTTP API.
func (r *runner) checkpoint(ctx context.Context) error {
	if !r.w.Durable {
		return nil
	}
	start := time.Now()
	if err := r.sv.checkpoint(ctx); err != nil {
		return err
	}
	r.checkpointMS = ms(time.Since(start))
	return nil
}

// reopen closes the store and reopens copies of the bytes it left
// behind, checking every acknowledged append each time.
func (r *runner) reopen(dir string) (recoverS, spaceAmp, replayed float64, err error) {
	if err := r.w.persist(r.s, dir); err != nil {
		return 0, 0, 0, err
	}
	if err := r.s.Close(); err != nil {
		return 0, 0, 0, err
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	samples := r.app.count
	for _, tr := range r.fleet {
		samples += len(tr.Samples)
	}
	spaceAmp = float64(onDisk) / float64(samples*sampleBytes)

	var (
		times []float64
		spent time.Duration
	)
	before := registry()
	for rep := 0; rep < recoverReps || spent < recoverTime; rep++ {
		copyTo := filepath.Join(r.scratch, fmt.Sprintf("recover-%d", rep))
		if err := copyDir(dir, copyTo); err != nil {
			return 0, 0, 0, err
		}
		// Each reopen starts from a collected heap, so none is charged
		// for the garbage of the one before.
		runtime.GC()
		start := time.Now()
		s, err := r.w.open(copyTo, nil)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("reopen: %w", err)
		}
		took := time.Since(start)
		times = append(times, took.Seconds())
		spent += took
		if err := checkAcked(s, r.app.acked); err != nil {
			_ = s.Close()
			return 0, 0, 0, err
		}
		if err := s.Close(); err != nil {
			return 0, 0, 0, err
		}
		if err := os.RemoveAll(copyTo); err != nil {
			return 0, 0, 0, err
		}
	}
	after := registry()
	replayed = counterDelta(before, after, "wal.replayed") / float64(len(times))
	return quietTime(times), spaceAmp, replayed, nil
}

// probe is a handle on the process-wide metrics registry, which
// DB.Metrics exposes whichever DB it is called on.
var probe = mstsearch.Open(mstsearch.RTree3D)

func registry() mstsearch.MetricsSnapshot { return probe.Metrics() }

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// endToEndUnits names every end-to-end metric of an untraced run with
// its unit. Failed operations are reported as ok_ratio, the share that
// succeeded, so that the metric is never 0; the failure count itself is
// the result line's "failed" over "attempted".
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"query_qps":     "1/s",
	"query_p50_ms":  "ms",
	"query_p90_ms":  "ms",
	"append_p50_ms": "ms",
	"append_p90_ms": "ms",
	"recover_s":     "s",
	"ok_ratio":      "ratio",
	"mem_mb":        "MB",
	"space_amp":     "ratio",
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run performs one run of workload w and returns the result line and
// the provenance line printed before it.
func run(ctx context.Context, w workload, seed int64, seconds float64, traced bool, scratch string) (result, map[string]any, error) {
	r := &runner{w: w, seed: seed, seconds: seconds, scratch: scratch}
	if traced {
		r.tr = &tracer{}
	}
	r.fleet = w.fleet(fleetSeed)
	for _, tr := range r.fleet {
		r.ids = append(r.ids, tr.ID)
	}
	r.app = newAppender(seed, r.fleet)
	res := result{Metrics: map[string]metric{}}

	steal0, total0 := stealTicks()
	setupS, err := r.setup(ctx)
	if err != nil {
		return res, nil, fmt.Errorf("setup: %w", err)
	}
	storeDir := filepath.Join(scratch, fmt.Sprintf("store-%d", setupReps-1))
	indexP, poolP := indexPages(r.s)
	stopped := false
	defer func() {
		if !stopped {
			r.sv.close()
			_ = r.s.Close()
		}
	}()

	var qps, tracedQPS float64
	var before mstsearch.MetricsSnapshot
	if traced {
		qps, tracedQPS, before, err = r.tracedClosed(ctx)
		if err != nil {
			return res, nil, err
		}
		r.open(ctx, r.phase(0.6), 0)
	} else {
		// Closed and open phases alternate twice, so that a burst of
		// load from other guests lands on some windows of every metric
		// rather than on all the windows of one.
		var rates []float64
		for i := int64(0); i < 2; i++ {
			rates = append(rates, r.closed(ctx, r.sv, r.phase(0.2), i+1)...)
			r.open(ctx, r.phase(0.3), i)
		}
		qps = quietRate(rates)
	}
	r.solo(ctx)
	if err := r.checkpoint(ctx); err != nil {
		return res, nil, fmt.Errorf("checkpoint: %w", err)
	}
	var after mstsearch.MetricsSnapshot
	if traced {
		r.tr.on.Store(false)
		after = registry()
	}
	// The tail: WAL records after the checkpoint for the reopen to replay.
	if err := r.app.apply(r.s, r.w.TailAppends); err != nil {
		return res, nil, err
	}
	memMB := liveHeapMB()
	steal1, total1 := stealTicks()

	pairs, gateErr := runGate(ctx, w, r.sv.cl, r.s, r.ids, newRand(seed*13+5))
	layers := map[string]float64{}
	if traced && gateErr == nil {
		layers, err = r.layers(ctx, before, after, pairs, qps, tracedQPS)
		if err != nil {
			return res, nil, err
		}
	}
	r.sv.close()
	stopped = true

	recoverS, spaceAmp, replayed, err := r.reopen(storeDir)
	if err != nil && gateErr == nil {
		gateErr = err
	}
	res.Correct = gateErr == nil
	res.Attempted, res.Failed = r.attempted, r.failed

	if traced {
		layers["wal.replayed"] = replayed
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{layers[name], unit}
		}
	} else {
		put := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnits[name]} }
		put("setup_s", setupS)
		put("query_qps", qps)
		put("query_p50_ms", quietTime(r.queries.p50s))
		put("query_p90_ms", quietTime(r.queries.p90s))
		put("append_p50_ms", quietTime(r.appends.p50s))
		put("append_p90_ms", quietTime(r.appends.p90s))
		put("recover_s", recoverS)
		put("ok_ratio", 1-ratio(float64(r.failed), float64(r.attempted)))
		put("mem_mb", memMB)
		put("space_amp", spaceAmp)
	}

	prov := map[string]any{
		"workload": w.Name, "seed": seed, "seconds": seconds, "trace": traced,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"fleet_objects": w.Objects, "fleet_samples_per_object": w.Samples, "fleet_seed": fleetSeed,
		"index_pages": indexP, "warm_pool_pages": poolP,
		"offered_query_rate": w.QueryRate, "offered_append_rate": w.AppendRate, "solo_append_rate": w.SoloRate,
		"query_samples": len(r.queries.all), "append_samples": len(r.appends.all),
		"checkpoint_ms":           r.checkpointMS,
		"query_p99_ms":            quietTime(r.queries.p99s),
		"append_p99_ms":           quietTime(r.appends.p99s),
		"query_p99_whole_run_ms":  percentile(r.queries.all, 0.99),
		"append_p99_whole_run_ms": percentile(r.appends.all, 0.99),
		"query_lateness_p50_ms":   percentile(r.queries.late, 0.5),
		"query_lateness_p99_ms":   percentile(r.queries.late, 0.99),
		"append_lateness_p50_ms":  percentile(r.appends.late, 0.5),
		"append_lateness_p99_ms":  percentile(r.appends.late, 0.99),
		"errors":                  r.fails.errors.Load(), "shed": r.fails.shed.Load(), "degraded": r.fails.degraded.Load(),
		"fail_ratio":     ratio(float64(r.failed), float64(r.attempted)),
		"host_steal_pct": 100 * ratio(float64(steal1-steal0), float64(total1-total0)),
	}
	if gateErr != nil {
		prov["gate_error"] = gateErr.Error()
	}
	return res, prov, nil
}

// stealTicks reads the CPU time the hypervisor took from this machine
// (the steal column of /proc/stat) and the total, in clock ticks. A run
// whose steal share is high measured a host busy with other guests.
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}
