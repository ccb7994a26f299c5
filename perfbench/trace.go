package main

import (
	"context"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mstsearch"
	"mstsearch/internal/server"
	"mstsearch/internal/storage"
	"mstsearch/internal/wal"
)

// The traced run measures each layer from outside the program, through
// its public seams: an http.Handler around the server, a server.Engine
// around the store, DB.SetPagerWrapper under the buffer pools,
// DurableOptions.OpenFile under the WAL, Options.Trace for search
// events, and the SearchStats and DB.Metrics() counters the calls
// return. The wrappers are installed for the whole traced run and record
// only while the tracer is on, so the run can first measure untraced
// throughput for trace.overhead.

// tracer collects the spans and counts of one traced run.
type tracer struct {
	on atomic.Bool

	mu           sync.Mutex
	selfMS       []float64 // per query request: HTTP span minus the engine span it waited for
	queryMS      []float64 // per query: engine span (batch span / batch size)
	appendMS     []float64
	checkpointMS []float64
	fsyncUS      []float64
	search       searchTotals

	prunes    atomic.Int64 // EventCandidatePrune events
	readNS    atomic.Int64 // pager Read span
	reads     atomic.Int64
	walBytes  atomic.Int64
	walFsyncs atomic.Int64
}

// searchTotals sums the SearchStats of the traced queries.
type searchTotals struct {
	queries, results                            int
	nodes, leaves, enqueued, trapezoid, refined int
	pageReads, evictions                        uint64
	pruningPower                                float64
}

func (t *tracer) addSearch(st mstsearch.SearchStats, results int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queryMS = append(t.queryMS, ms(d))
	s := &t.search
	s.queries++
	s.results += results
	s.nodes += st.NodesAccessed
	s.leaves += st.LeavesAccessed
	s.enqueued += st.Enqueued
	s.trapezoid += st.TrapezoidEvals
	s.refined += st.ExactRefined
	s.pageReads += st.PageReads
	s.evictions += st.Evictions
	s.pruningPower += st.PruningPower
}

func (t *tracer) record(dst *[]float64, v float64) {
	t.mu.Lock()
	*dst = append(*dst, v)
	t.mu.Unlock()
}

// countPrunes is the Options.Trace hook. Cluster shards and batch
// workers call it concurrently.
func (t *tracer) countPrunes(ev mstsearch.TraceEvent) {
	if ev.Kind == mstsearch.EventCandidatePrune {
		t.prunes.Add(1)
	}
}

// withTrace returns o with the prune counter chained in front of any
// hook it already has.
func (t *tracer) withTrace(o mstsearch.Options) mstsearch.Options {
	prev := o.Trace
	o.Trace = func(ev mstsearch.TraceEvent) {
		t.countPrunes(ev)
		if prev != nil {
			prev(ev)
		}
	}
	return o
}

// reqSpan accumulates the engine time spent on one HTTP request.
type reqSpan struct{ engineNS atomic.Int64 }

type spanKey struct{}

func spanOf(ctx context.Context) *reqSpan {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*reqSpan)
	return sp
}

// handler wraps the server: the span of a /v1/query request minus the
// engine time it waited for (the whole span of its coalesced batch) is
// the serving layer's self time (admission, decoding, coalescing wait,
// encoding).
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := &reqSpan{}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
		if r.URL.Path == "/v1/query" {
			t.record(&t.selfMS, ms(time.Since(start)-time.Duration(sp.engineNS.Load())))
		}
	})
}

// tracedEngine times the engine calls the server makes.
type tracedEngine struct {
	server.Engine
	t *tracer
}

// Query is the server's path when coalescing is off; with mstserve's
// default 1 ms window single queries arrive as KMostSimilarBatch calls.
func (e *tracedEngine) Query(ctx context.Context, req mstsearch.Request) (mstsearch.Response, error) {
	if !e.t.on.Load() {
		return e.Engine.Query(ctx, req)
	}
	req.Options = e.t.withTrace(req.Options)
	start := time.Now()
	resp, err := e.Engine.Query(ctx, req)
	d := time.Since(start)
	if sp := spanOf(ctx); sp != nil {
		sp.engineNS.Add(int64(d))
	}
	if err == nil {
		e.t.addSearch(resp.Stats, len(resp.Results), d)
	}
	return resp, err
}

func (e *tracedEngine) KMostSimilarBatch(ctx context.Context, queries []mstsearch.BatchQuery, opts mstsearch.Options) []mstsearch.BatchResult {
	if !e.t.on.Load() || len(queries) == 0 {
		return e.Engine.KMostSimilarBatch(ctx, queries, opts)
	}
	traced := make([]mstsearch.BatchQuery, len(queries))
	for i, q := range queries {
		if q.Opts != nil {
			o := e.t.withTrace(*q.Opts)
			q.Opts = &o
		}
		traced[i] = q
	}
	start := time.Now()
	res := e.Engine.KMostSimilarBatch(ctx, traced, e.t.withTrace(opts))
	span := time.Since(start)
	per := span / time.Duration(len(queries))
	for i, r := range res {
		// Every member waits for the whole batch, so the request's
		// engine time is the full span; the per-query engine cost is
		// the span shared out.
		if sp := spanOf(queries[i].Ctx); sp != nil {
			sp.engineNS.Add(int64(span))
		}
		if r.Err == nil {
			e.t.addSearch(r.Stats, len(r.Results), per)
		}
	}
	return res
}

func (e *tracedEngine) AppendSample(id mstsearch.ID, s mstsearch.Sample) error {
	if !e.t.on.Load() {
		return e.Engine.AppendSample(id, s)
	}
	start := time.Now()
	err := e.Engine.AppendSample(id, s)
	e.t.record(&e.t.appendMS, ms(time.Since(start)))
	return err
}

func (e *tracedEngine) CheckpointContext(ctx context.Context) error {
	if !e.t.on.Load() {
		return e.Engine.CheckpointContext(ctx)
	}
	start := time.Now()
	err := e.Engine.CheckpointContext(ctx)
	e.t.record(&e.t.checkpointMS, ms(time.Since(start)))
	return err
}

// pager times page reads underneath the buffer pools. It forwards the
// inner pager's checksums so the pools verify exactly as they do
// without it.
type pager struct {
	storage.Pager
	t *tracer
}

func (p *pager) Read(id storage.PageID) ([]byte, error) {
	if !p.t.on.Load() {
		return p.Pager.Read(id)
	}
	start := time.Now()
	b, err := p.Pager.Read(id)
	p.t.readNS.Add(int64(time.Since(start)))
	p.t.reads.Add(1)
	return b, err
}

func (p *pager) PageChecksum(id storage.PageID) (uint32, bool) {
	if ck, ok := p.Pager.(storage.Checksummer); ok {
		return ck.PageChecksum(id)
	}
	return 0, false
}

func (t *tracer) wrapPager(p mstsearch.Pager) mstsearch.Pager { return &pager{Pager: p, t: t} }

// walFile counts the bytes and times the fsyncs of one WAL segment.
type walFile struct {
	*os.File
	t *tracer
}

// openFile is the DurableOptions.OpenFile seam; it creates segments the
// way the WAL does by default.
func (t *tracer) openFile(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &walFile{File: f, t: t}, nil
}

func (f *walFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.t.on.Load() {
		f.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *walFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.t.walFsyncs.Add(1)
	f.t.record(&f.t.fsyncUS, us(time.Since(start)))
	return err
}

// counterDelta is after − before for one registry counter.
func counterDelta(before, after mstsearch.MetricsSnapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// histDelta is the change in a registry histogram's count and sum.
func histDelta(before, after mstsearch.MetricsSnapshot, name string) (count, sum float64) {
	a, b := after.Histograms[name], before.Histograms[name]
	return float64(a.Count - b.Count), a.Sum - b.Sum
}
