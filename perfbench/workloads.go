package main

import (
	"fmt"

	"mstsearch"
)

// The benchmark's workloads. Each serves one store in-process through
// server.NewEngine with server.DefaultConfig() (mstserve's defaults) on a
// loopback listener and drives it with server.Client from at most two
// request-issuing goroutines (the host has two CPUs). The data is a fixed
// GSTD fleet per workload (fleetSeed in run.go); --seed generates the
// traffic over it: queries, 8-sample random walks in the style of
// cmd/mstload, and appends.
//
// Every run has the same phases:
//
//	setup   build or ingest the store, enable the warm pool, start the
//	        server and send warm-up queries; done setupReps times and
//	        timed as setup_s (quiet quartile)
//	closed  closed-loop query clients (query_qps), with the open-loop
//	        append stream beside them, untimed, where the workload
//	        writes; 40 % of --seconds
//	open    queries at the fixed rate QueryRate plus appends at
//	        AppendRate (query_p50_ms/p90, append_p50_ms/p90, timed from
//	        each call's due time); 60 % of --seconds
//
//	        An untraced run alternates the two, closed and open twice
//	        over, so that a burst of load from other guests of the host
//	        lands on windows of every metric. A traced run measures its
//	        closed phase in four sub-phases, untraced, traced, traced,
//	        untraced, for trace.overhead (tracedClosed in run.go), then
//	        the open phase traced.
//	solo    SoloAppends appends at SoloRate, alone (append_p50_ms/p90
//	        of a workload that does not write beside its reads)
//	tail    one timed checkpoint (durable stores), then TailAppends
//	        appends straight to the store, untimed, for the reopen to
//	        replay
//	gate    sampled queries checked against a linear scan (untimed)
//	recover close the store and reopen copies of the bytes it left
//	        behind (recover_s, quiet quartile); every acknowledged
//	        append must read back through Get
//
// Rates and latency percentiles are taken in windows of at least 1.5
// seconds (and, for latencies, at least 50 scheduled calls), and every
// timed figure taken over windows or repeats reports its quiet quartile
// (quietTime and quietRate in stats.go): the lower quartile of the
// times, the upper one of the rates. Other guests of a shared host only
// ever add time, and they take the CPU in bursts that cover some windows
// and not others; on a 2-vCPU guest whose neighbours took 3-10 % of the
// CPU, the median across windows of cluster-mixed's append p90 still
// spread 0.45-0.52 (inter-quartile range over median) across five
// seeds; the lower quartile across the same windows spread 0.09. A
// slowdown of the program itself moves every window, the quiet ones
// too; one that hits only a few windows (a periodic stall) shows in the
// p99s and the whole-run figures of the provenance line, not in the
// gated metrics. The tail reported and bounded is p90: the p99s spread
// 0.36-0.83 across ten seeds. The p99s, per window and whole-run, are in
// the provenance line beside the generator's lateness and the host's
// steal share.
//
// Why each workload, and which layers it exercises:
//
// dissim-read is the paper's core path: best-first DISSIM k-MST over the
// 3D R-tree with exact refinement, the index ten times the warm pool. It
// is where the query profile spends its time in MinDistTrajMBB and the
// DISSIM partial bounds. Shards and WAL stay idle; its appends come only
// after the reads, so they do not disturb them.
//
// cluster-mixed is a durable 4-shard, 2-replica cluster under a steady
// append stream. Its short-window k=1 queries make per-shard search
// light, so scatter, prune and merge, replica writes, the WAL and the
// warm-pool rebuild every append triggers carry the cost. A read-side
// gain that hurts writes shows here.
//
// metric-ntree is the only workload on internal/ntree, the metric
// searcher and the DTW/LCSS/EDR kernels; MINDIST and the shard layer are
// unused. Its appends put a price on the rebuild each N-tree append
// costs (about 15 ms under the write lock), live in the solo phase and
// again on WAL replay of the tail (recover_s). They run after the
// queries, not beside them: with a trickle of 3-5 appends/s beside the
// queries, the few queries that waited behind a rebuild moved
// query_p90_ms with every dip of the host (spread 0.33 over ten seeds).
//
// Layer → per-layer metric → end-to-end metric it should move, and where:
//
//	server.*  self_ms_p50/p99, coalesce_batch, shed → query_p50_ms and
//	          query_qps on all workloads, most on metric-ntree and
//	          cluster-mixed, where search is cheap
//	db.*      query_ms_p50, allocs_per_query → query_qps on dissim-read;
//	          append_ms_p50/p99, checkpoint_ms → append_p50/p90_ms and
//	          recover_s on the durable workloads
//	mst.*     nodes/leaves/enqueued/trapezoid_evals/prunes_per_query,
//	          pruning_power, refined_per_result → query_qps and
//	          query_p50_ms on dissim-read, less on cluster-mixed, not on
//	          metric-ntree beyond the searcher skeleton
//	storage.* page_reads_per_query, pages_per_result, hit_ratio,
//	          evictions_per_query, read_us → query_qps on dissim-read; on
//	          cluster-mixed appends invalidate the pool, so a cache gain
//	          that costs writes shows there
//	shard.*   fanout, pruned_ratio, gather_ms, skew, failovers (must be
//	          0) → query_p90_ms and query_qps on cluster-mixed only
//	kernel.*  dissim_us → dissim-read; dtw_us, lcss_us, edr_us →
//	          metric-ntree
//	wal.*     bytes_per_append, fsyncs_per_append, fsync_us_p50/p99,
//	          write_amp, replayed → append_p90_ms, recover_s and
//	          space_amp on the durable workloads, nothing on dissim-read
//	trace.overhead is untraced over traced query_qps, per workload.
//
// A per-layer metric of a layer the workload does not use reads 0.

// workload is one traffic mix over one store.
type workload struct {
	Name string
	Why  string

	Kind     mstsearch.IndexKind
	Durable  bool
	Shards   int // 0 = a single DB
	Replicas int

	Objects, Samples int // GSTD fleet size and samples per object

	K       int
	Window  float64  // query interval width
	Metrics []string // wire metric names, cycled query by query ("" = DISSIM)
	Eps     float64  // LCSS/EDR match threshold

	QueryClients int     // closed-loop clients
	QueryRate    float64 // open-loop offered queries per second
	AppendRate   float64 // open-loop appends per second beside the queries

	// SoloAppends appends run open-loop at SoloRate after the queries,
	// alone: the append latency of a workload that does not write
	// beside its reads.
	SoloAppends int
	SoloRate    float64
	// TailAppends are applied straight to the store after the final
	// checkpoint, untimed: the WAL records the reopen has to replay.
	TailAppends int
}

// The offered rates are fixed constants, so that a parent and a child
// commit see the same load. Closed-loop capacity measured on a 2-CPU
// host was 300-550 q/s for dissim-read (two clients) and 450-600 q/s for
// cluster-mixed and metric-ntree (one client each), the low end while
// other guests took 5-18 % of the CPU. The open-loop rates are a fifth
// to a third of that: low enough that such dips do not build a backlog
// (at 150 q/s dissim-read did). The N-tree's solo appends, each a
// rebuild of about 15 ms, run at 15/s, a quarter of what one CPU allows.
var workloads = []workload{
	{
		Name: "dissim-read",
		Why:  "paper's core path: DISSIM k-MST over the in-memory 3D R-tree, index 10x the warm pool; shard and WAL layers idle",
		Kind: mstsearch.RTree3D,

		Objects: 300, Samples: 64,
		K: 5, Window: 0.4, Metrics: []string{""},

		QueryClients: 2, QueryRate: 100,
		SoloAppends: 1000, SoloRate: 250,
	},
	{
		Name: "cluster-mixed",
		Why:  "durable 4-shard 2-replica cluster, k=1 short-window queries beside 100 appends/s: scatter/merge, replica writes, WAL",
		Kind: mstsearch.RTree3D, Durable: true, Shards: 4, Replicas: 2,

		Objects: 300, Samples: 64,
		K: 1, Window: 0.05, Metrics: []string{""},

		QueryClients: 1, QueryRate: 150, AppendRate: 100,
		TailAppends: 1000,
	},
	{
		Name: "metric-ntree",
		Why:  "durable N-tree, DTW/LCSS/EDR kNN, then appends alone: metric searcher, warping kernels, rebuild per append",
		Kind: mstsearch.NTree, Durable: true,

		Objects: 150, Samples: 64,
		K: 5, Window: 0.4, Metrics: []string{"dtw", "lcss", "edr"}, Eps: 0.05,

		QueryClients: 1, QueryRate: 120,
		SoloAppends: 150, SoloRate: 15,
		TailAppends: 20,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload for the self-tests: the same phases and code
// paths on a fleet small enough to run in well under a second.
func (w workload) tiny() workload {
	w.Objects = 24
	w.Samples = 32
	w.QueryRate = 50
	if w.AppendRate > 0 {
		w.AppendRate = 10
	}
	if w.SoloAppends > 0 {
		w.SoloAppends, w.SoloRate = 20, 100
	}
	if w.TailAppends > 0 {
		w.TailAppends = 5
	}
	return w
}
