package main

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"time"

	"mstsearch"
	"mstsearch/internal/shard"
)

// layerUnits names every per-layer metric of the traced run with its
// unit; the traced run reports all of them on every workload, 0 for a
// layer the workload does not use.
var layerUnits = map[string]string{
	"server.self_ms_p50":    "ms",
	"server.self_ms_p99":    "ms",
	"server.coalesce_batch": "count",
	"server.shed":           "count",

	"db.query_ms_p50":     "ms",
	"db.append_ms_p50":    "ms",
	"db.append_ms_p99":    "ms",
	"db.checkpoint_ms":    "ms",
	"db.allocs_per_query": "count",

	"mst.nodes_per_query":           "count",
	"mst.leaves_per_query":          "count",
	"mst.enqueued_per_query":        "count",
	"mst.pruning_power":             "ratio",
	"mst.trapezoid_evals_per_query": "count",
	"mst.refined_per_result":        "ratio",
	"mst.prunes_per_query":          "count",

	"storage.page_reads_per_query": "count",
	"storage.pages_per_result":     "count",
	"storage.hit_ratio":            "ratio",
	"storage.evictions_per_query":  "count",
	"storage.read_us":              "us",

	"shard.fanout":       "count",
	"shard.pruned_ratio": "ratio",
	"shard.gather_ms":    "ms",
	"shard.skew":         "ratio",
	"shard.failovers":    "count",

	"kernel.dissim_us": "us",
	"kernel.dtw_us":    "us",
	"kernel.lcss_us":   "us",
	"kernel.edr_us":    "us",

	"wal.bytes_per_append":  "B",
	"wal.fsyncs_per_append": "count",
	"wal.fsync_us_p50":      "us",
	"wal.fsync_us_p99":      "us",
	"wal.write_amp":         "ratio",
	"wal.replayed":          "count",

	"trace.overhead": "ratio",
}

// layers computes the per-layer metrics of a traced run from the spans
// and counts the tracer gathered, the registry counters' deltas over the
// traced phases, and replays into the engine outside the timed phases.
func (r *runner) layers(ctx context.Context, before, after mstsearch.MetricsSnapshot, pairs []gatePair, untracedQPS, tracedQPS float64) (map[string]float64, error) {
	t := r.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(layerUnits))
	delta := func(name string) float64 { return counterDelta(before, after, name) }
	sumDelta := func(prefix, suffix string) float64 {
		var sum float64
		for name := range after.Counters {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				sum += delta(name)
			}
		}
		return sum
	}

	out["server.self_ms_p50"] = percentile(t.selfMS, 0.50)
	out["server.self_ms_p99"] = percentile(t.selfMS, 0.99)
	out["server.coalesce_batch"] = ratio(delta("server.coalesce.queries"), delta("server.coalesce.batches"))
	out["server.shed"] = sumDelta("server.requests.", ".shed")

	s := t.search
	q := float64(s.queries)
	out["db.query_ms_p50"] = percentile(t.queryMS, 0.50)
	out["db.append_ms_p50"] = percentile(t.appendMS, 0.50)
	out["db.append_ms_p99"] = percentile(t.appendMS, 0.99)
	out["db.checkpoint_ms"] = median(t.checkpointMS)

	out["mst.nodes_per_query"] = ratio(float64(s.nodes), q)
	out["mst.leaves_per_query"] = ratio(float64(s.leaves), q)
	out["mst.enqueued_per_query"] = ratio(float64(s.enqueued), q)
	out["mst.pruning_power"] = ratio(s.pruningPower, q)
	out["mst.trapezoid_evals_per_query"] = ratio(float64(s.trapezoid), q)
	out["mst.refined_per_result"] = ratio(float64(s.results), float64(s.refined))
	out["mst.prunes_per_query"] = ratio(float64(t.prunes.Load()), q)

	out["storage.page_reads_per_query"] = ratio(float64(s.pageReads), q)
	out["storage.pages_per_result"] = ratio(float64(s.pageReads), float64(s.results))
	hits := sumDelta("storage.pool.", ".hits")
	out["storage.hit_ratio"] = ratio(hits, hits+sumDelta("storage.pool.", ".misses"))
	out["storage.evictions_per_query"] = ratio(float64(s.evictions), q)
	out["storage.read_us"] = ratio(float64(t.readNS.Load())/1e3, float64(t.reads.Load()))

	fanN, fanSum := histDelta(before, after, "shard.fanout")
	_, prunedSum := histDelta(before, after, "shard.pruned")
	out["shard.fanout"] = ratio(fanSum, fanN)
	out["shard.pruned_ratio"] = ratio(prunedSum, fanSum+prunedSum)
	out["shard.failovers"] = delta("shard.replica.failovers")

	appends := float64(len(t.appendMS))
	walBytes := float64(t.walBytes.Load())
	out["wal.bytes_per_append"] = ratio(walBytes, appends)
	out["wal.fsyncs_per_append"] = ratio(float64(t.walFsyncs.Load()), appends)
	out["wal.fsync_us_p50"] = percentile(t.fsyncUS, 0.50)
	out["wal.fsync_us_p99"] = percentile(t.fsyncUS, 0.99)
	out["wal.write_amp"] = ratio(walBytes, appends*sampleBytes)
	out["trace.overhead"] = ratio(untracedQPS, tracedQPS)

	reqs, err := r.replayRequests()
	if err != nil {
		return nil, err
	}
	allocs, err := allocsPerQuery(ctx, r.s, reqs)
	if err != nil {
		return nil, err
	}
	out["db.allocs_per_query"] = allocs
	out["shard.gather_ms"], out["shard.skew"], err = r.gather(ctx, reqs)
	if err != nil {
		return nil, err
	}
	for name, v := range kernelTimes(pairs, r.fleetByID()) {
		out[name] = v
	}
	return out, nil
}

// replayRequests are the workload's queries as engine requests.
func (r *runner) replayRequests() ([]mstsearch.Request, error) {
	rng := newRand(r.seed*37 + 11)
	reqs := make([]mstsearch.Request, replayCount)
	for i := range reqs {
		req, err := request(r.w.query(rng, i))
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	return reqs, nil
}

// allocsPerQuery replays the queries into the engine from one goroutine
// and counts heap allocations per query.
func allocsPerQuery(ctx context.Context, s store, reqs []mstsearch.Request) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		if _, err := s.Query(ctx, req); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs)), nil
}

// gather replays each query on the cluster, then on every shard it
// searched: the cluster span minus the slowest shard's is the
// scatter-gather overhead, and the slowest over the median shard span
// is the skew. Medians over the queries; 0 on a single DB.
func (r *runner) gather(ctx context.Context, reqs []mstsearch.Request) (gatherMS, skew float64, err error) {
	c, ok := r.s.(*shard.Cluster)
	if !ok {
		return 0, 0, nil
	}
	var gathers, skews []float64
	for _, req := range reqs {
		start := time.Now()
		_, qs, err := c.QueryShards(ctx, req)
		if err != nil {
			return 0, 0, err
		}
		total := time.Since(start)
		var spans []float64
		for i, st := range qs.PerShard {
			if st == nil {
				continue
			}
			start := time.Now()
			if _, err := c.Shard(i).Query(ctx, req); err != nil {
				return 0, 0, err
			}
			spans = append(spans, ms(time.Since(start)))
		}
		if len(spans) == 0 {
			continue
		}
		sort.Float64s(spans)
		slowest := spans[len(spans)-1]
		gathers = append(gathers, ms(total)-slowest)
		skews = append(skews, ratio(slowest, median(spans)))
	}
	return median(gathers), median(skews), nil
}

func (r *runner) fleetByID() map[mstsearch.ID]*mstsearch.Trajectory {
	out := make(map[mstsearch.ID]*mstsearch.Trajectory, len(r.ids))
	for _, id := range r.ids {
		out[id] = r.s.Get(id)
	}
	return out
}

// kernelTimes times the distance kernels on the gate's (query, answer)
// pairs: Dissimilarity for DISSIM queries, MetricDistance for the
// others. Each value is the median per-call time in microseconds.
func kernelTimes(pairs []gatePair, fleet map[mstsearch.ID]*mstsearch.Trajectory) map[string]float64 {
	spans := map[string][]float64{}
	for _, p := range pairs {
		req, err := request(p.req)
		if err != nil {
			continue
		}
		name := "kernel." + strings.ToLower(req.Metric.String()) + "_us"
		for _, h := range p.hits {
			tr := fleet[h.id]
			start := time.Now()
			for i := 0; i < kernelRepeat; i++ {
				if req.Metric == mstsearch.MetricDISSIM {
					mstsearch.Dissimilarity(req.Q, tr, req.Interval.T1, req.Interval.T2)
				} else {
					mstsearch.MetricDistance(req.Metric, req.MetricEps, req.Q, tr, req.Interval.T1, req.Interval.T2)
				}
			}
			spans[name] = append(spans[name], us(time.Since(start))/kernelRepeat)
		}
	}
	out := make(map[string]float64, len(spans))
	for name, xs := range spans {
		out[name] = median(xs)
	}
	return out
}
