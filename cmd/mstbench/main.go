// Command mstbench regenerates the tables and figures of the paper's
// experimental study (§5) and writes the repository's benchmark reports.
// Each study experiment prints an aligned text table whose rows
// correspond to the published plot/table.
//
// Usage:
//
//	mstbench -exp table2|fig8|fig9|q1|q2|q3|ablation|batch|shard|explain|index-compare|all [flags]
//
// The default flags run a scaled-down study that finishes in minutes;
// -paper switches to the published scale (273 trucks / 112K segments for
// the quality study; S0100…S1000 with ~2000 samples per object and 500
// queries per setting for the performance study).
//
// Two more experiments, outside -exp all, write a JSON report (to -json,
// or stdout) shaped like index-compare's: gobench converts `go test
// -bench` output read on stdin, and load drives closed-loop k-MST load
// against a running mstserve, failing on any failed query but a 429 shed.
//
//	go test -run '^$' -bench KMostSimilarBatch -benchmem . | mstbench -exp gobench -json results/BENCH.json
//	mstbench -exp load -addr http://127.0.0.1:8080 -workers 16 -duration 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mstsearch"
	"mstsearch/internal/experiments"
	"mstsearch/internal/shard"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one -exp choice; inAll marks the study experiments
// -exp all runs.
type experiment struct {
	name  string
	inAll bool
	run   func() error
}

// run parses the flags, runs the selected experiments and returns the
// process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mstbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: table2, fig8, fig9, q1, q2, q3, ablation, batch, shard, explain, index-compare, all, gobench or load")
		jsonOut  = fs.String("json", "", "write the index-compare, gobench or load report as JSON to this path (gobench and load default to stdout)")
		paper    = fs.Bool("paper", false, "run at the paper's full scale (slow)")
		scale    = fs.Float64("scale", 0.25, "Trucks dataset scale in (0,1] for fig8/fig9/table2")
		samples  = fs.Int("samples", 501, "samples per synthetic object (paper: 2001)")
		queries  = fs.Int("queries", 50, "queries per performance setting (paper: 500)")
		qf       = fs.Int("qualityqueries", 40, "queries per fig9 p-value (0 = all trajectories)")
		seed     = fs.Int64("seed", 2007, "generator seed")
		verbose  = fs.Bool("v", false, "print progress")
		withSTR  = fs.Bool("str", false, "add the STR-tree as a third series in Q1-Q3")
		addr     = fs.String("addr", "http://127.0.0.1:8080", "load: mstserve base URL")
		workers  = fs.Int("workers", 16, "load: concurrent closed-loop workers")
		duration = fs.Duration("duration", 30*time.Second, "load: load duration")
		k        = fs.Int("k", 5, "load: k per query")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	card, ablationCard := 50, 100
	if *paper {
		*scale, *samples, *queries, *qf = 1, 2001, 500, 0
		card, ablationCard = 500, 500
	}
	wl, err := newWorkload(card, *samples, *queries, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "mstbench:", err)
		return 1
	}

	exps := []experiment{
		{"table2", true, func() error {
			cards := []int{100, 250, 500, 1000}
			if !*paper {
				cards = []int{25, 50, 100, 200}
				fmt.Fprintf(stdout, "(scaled: cardinalities %v, %d samples/object — use -paper for S0100..S1000)\n", cards, *samples)
			}
			rows, err := experiments.RunTable2(cards, *samples, *scale, *seed)
			if err == nil {
				experiments.PrintTable2(stdout, rows)
			}
			return err
		}},
		{"fig8", true, func() error {
			experiments.PrintCompression(stdout, experiments.RunCompression(experiments.QualityConfig{Scale: *scale, Seed: *seed}))
			return nil
		}},
		{"fig9", true, func() error {
			experiments.PrintQuality(stdout, experiments.RunQuality(experiments.QualityConfig{Scale: *scale, NumQueries: *qf, Seed: *seed}))
			return nil
		}},
		{"batch", true, func() error { return runBatchExperiment(stdout, wl) }},
		{"shard", true, func() error { return runShardExperiment(stdout, wl) }},
		{"explain", true, func() error { return runExplainExperiment(stdout, wl) }},
		{"index-compare", true, func() error { return runIndexCompareExperiment(stdout, wl, *jsonOut) }},
		{"ablation", true, func() error {
			rows, err := experiments.RunAblation(experiments.PerfConfig{SamplesPerObject: *samples, Seed: *seed}, ablationCard, *queries, 0.05)
			if err == nil {
				experiments.PrintAblation(stdout, rows)
			}
			return err
		}},
		{"gobench", false, func() error {
			rep, err := parseGoBench(os.Stdin)
			if err == nil {
				err = rep.write(*jsonOut, stdout)
			}
			return err
		}},
		{"load", false, func() error {
			return runLoad(*addr, *workers, *duration, *k, *seed, *jsonOut, stdout, stderr)
		}},
	}
	perf := experiments.NewRunner(experiments.PerfConfig{
		SamplesPerObject: *samples,
		NumQueries:       *queries,
		Seed:             *seed,
		IncludeSTRTree:   *withSTR,
	})
	if *verbose {
		perf.Progress = func(s string) { fmt.Fprintln(stderr, "# "+s) }
	}
	for _, qs := range experiments.PaperQuerySettings() {
		exps = append(exps, experiment{qs.Name, true, func() error {
			if !*paper && qs.Name == "Q1" {
				qs.Cardinalities = []int{25, 50, 100, 200}
				fmt.Fprintf(stdout, "(scaled: cardinalities %v — use -paper for S0100..S1000)\n", qs.Cardinalities)
			}
			if !*paper && (qs.Name == "Q2" || qs.Name == "Q3") {
				qs.Cardinalities = []int{100}
			}
			rows, err := perf.Run(qs)
			if err == nil {
				experiments.PrintPerf(stdout, qs.Name, rows)
			}
			return err
		}})
	}

	ran := false
	for _, e := range exps {
		if !strings.EqualFold(*exp, e.name) && !(*exp == "all" && e.inAll) {
			continue
		}
		ran = true
		if err := e.run(); err != nil {
			fmt.Fprintln(stderr, "mstbench:", err)
			return 1
		}
		if e.inAll {
			fmt.Fprintln(stdout)
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "mstbench: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	return 0
}

// workload is the GSTD fleet and the Fig. 10 Q1-shaped query windows the
// facade-driven experiments (batch, shard, explain, index-compare) share.
type workload struct {
	trajs         []mstsearch.Trajectory
	card, samples int
	windows       []mstsearch.Request
}

// newWorkload generates the fleet and draws n query windows, each a 5%
// slice of a random fleet trajectory, anonymized. The draw order —
// source (rng.Intn), then start (rng.Float64), then the slice — fixes
// every printed column.
func newWorkload(card, samples, n int, seed int64) (*workload, error) {
	wl := &workload{trajs: experiments.SyntheticDataset(card, samples, seed).Trajs, card: card, samples: samples}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		src := &wl.trajs[rng.Intn(len(wl.trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			return nil, fmt.Errorf("query window [%g, %g] outside dataset span", t1, t2)
		}
		q := sl.Clone()
		q.ID = 0
		wl.windows = append(wl.windows, mstsearch.Request{Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2}})
	}
	return wl, nil
}

// requests returns the windows as requests for the k most similar
// trajectories under opts.
func (wl *workload) requests(k int, opts mstsearch.Options) []mstsearch.Request {
	reqs := make([]mstsearch.Request, len(wl.windows))
	for i, r := range wl.windows {
		r.K, r.Options = k, opts
		reqs[i] = r
	}
	return reqs
}

// describe names the workload in an experiment's header line.
func (wl *workload) describe(k int) string {
	return fmt.Sprintf("S%04d, %d samples/object, %d queries (5%% windows, k=%d)", wl.card, wl.samples, len(wl.windows), k)
}

// runBatchExperiment measures KMostSimilarBatch throughput across worker
// counts on a Fig. 10 Q1-shaped workload (5% windows, k = 1) with the warm
// shared buffer enabled. It lives here rather than internal/experiments
// because it drives the public facade (the experiments package sits below
// it in the import graph), as do the shard, explain and index-compare
// experiments. Speedup is relative to the one-worker leg; on a
// single-CPU machine expect ~1.0× across the board.
func runBatchExperiment(w io.Writer, wl *workload) error {
	db, err := mstsearch.NewDB(mstsearch.RTree3D, wl.trajs)
	if err != nil {
		return err
	}
	db.EnableWarmBuffer()
	queries := make([]mstsearch.BatchQuery, len(wl.windows))
	for i, r := range wl.windows {
		queries[i] = mstsearch.BatchQuery{Q: r.Q, T1: r.Interval.T1, T2: r.Interval.T2, K: 1}
	}
	opts := mstsearch.Options{ExactRefine: true, Refine: 1}
	batch := func(o mstsearch.Options) error {
		for _, br := range db.KMostSimilarBatch(context.Background(), queries, o) {
			if br.Err != nil {
				return br.Err
			}
		}
		return nil
	}
	// Untimed warmup so every leg sees the same buffer state.
	if err := batch(opts); err != nil {
		return err
	}

	fmt.Fprintf(w, "Batch k-MST executor: %s, GOMAXPROCS=%d\n", wl.describe(1), runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "workers   total(ms)   queries/s   speedup")
	var base float64
	for _, par := range []int{1, 2, 4, 8} {
		o := opts
		o.Parallelism = par
		start := time.Now()
		if err := batch(o); err != nil {
			return err
		}
		elapsed := time.Since(start)
		qps := float64(len(queries)) / elapsed.Seconds()
		if par == 1 {
			base = qps
		}
		fmt.Fprintf(w, "%7d %11.2f %11.0f %8.2fx\n", par, float64(elapsed.Microseconds())/1000, qps, qps/base)
	}
	return nil
}

// runShardExperiment measures scatter-gather k-MST across shard counts
// and placement policies on the Fig. 10 Q1-shaped workload (5% windows,
// k = 1): per-setting throughput plus the coordinator's gather profile —
// how many shards each query actually searched and how many were pruned
// on their root lower bound without being touched. Spatial placement
// co-locates nearby trajectories, so localized queries prune most of the
// cluster; hash placement spreads them, so the fanout stays wide.
func runShardExperiment(w io.Writer, wl *workload) error {
	reqs := wl.requests(1, mstsearch.Options{ExactRefine: true, Refine: 1})
	nq := float64(len(reqs))
	fmt.Fprintf(w, "Sharded k-MST scatter-gather: %s, GOMAXPROCS=%d\n", wl.describe(1), runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "shards   placement   total(ms)   queries/s   avg fanout   avg pruned")
	for _, n := range []int{1, 2, 4, 8} {
		for _, place := range []shard.Placement{shard.HashPlacement{}, shard.SpatialPlacement{}} {
			c, err := shard.New(mstsearch.RTree3D, n, place, shard.Options{})
			if err != nil {
				return err
			}
			for i := range wl.trajs {
				if err := c.Add(wl.trajs[i]); err != nil {
					return err
				}
			}
			c.EnableWarmBuffer()
			// Untimed warmup so every leg measures the same buffer state.
			for _, r := range reqs {
				if _, err := c.Query(context.Background(), r); err != nil {
					return err
				}
			}
			var fanout, pruned int
			start := time.Now()
			for _, r := range reqs {
				_, qs, err := c.QueryShards(context.Background(), r)
				if err != nil {
					return err
				}
				fanout += qs.Fanout
				pruned += qs.Pruned
			}
			elapsed := time.Since(start)
			fmt.Fprintf(w, "%6d %11s %11.2f %11.0f %12.2f %12.2f\n",
				n, place.Name(), float64(elapsed.Microseconds())/1000,
				nq/elapsed.Seconds(), float64(fanout)/nq, float64(pruned)/nq)
		}
	}
	return nil
}

// runExplainExperiment validates the selectivity cost model against the
// observability layer on a GSTD fleet: each query runs under DB.Explain
// and the table compares the model's predicted leaf I/O with the leaf
// pages the traced search actually touched. The last query's full EXPLAIN
// transcript follows the table.
func runExplainExperiment(w io.Writer, wl *workload) error {
	db, err := mstsearch.NewDB(mstsearch.RTree3D, wl.trajs)
	if err != nil {
		return err
	}
	db.EnableWarmBuffer()
	fmt.Fprintf(w, "EXPLAIN vs. cost model: GSTD %s\n", wl.describe(5))
	fmt.Fprintln(w, "query   predLeaf   actLeaf   nodes   pruned%   events   latency")
	var last *mstsearch.ExplainReport
	for i, r := range wl.requests(5, mstsearch.DefaultOptions()) {
		rep, err := db.Explain(context.Background(), r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%5d %10.1f %9d %7d %8.1f %8d %9s\n",
			i+1, rep.Estimate.ExpectedLeafPages, rep.Stats.LeavesAccessed,
			rep.Stats.NodesAccessed, rep.Stats.PruningPower*100,
			rep.Trace.Events, rep.Duration.Round(time.Microsecond))
		last = rep
	}
	fmt.Fprintln(w, "\nlast query's transcript:")
	fmt.Fprint(w, last)
	return nil
}

// runIndexCompareExperiment races every registered index kind on the same
// workload: a k-MST (DISSIM) leg all four kinds serve, then an exact DTW
// kNN leg only the metric kind can answer (MBB geometry cannot lower-bound
// DTW, so the R-tree family rejects it as a bad query) — that leg is
// priced against a brute-force linear scan and the answers are checked
// against it. Per-kind node accesses, pruning power, and page I/O come
// from the engine's own SearchStats. With jsonPath set, the table is also
// written as a JSON report (results/BENCH_PR9.json in CI).
func runIndexCompareExperiment(w io.Writer, wl *workload, jsonPath string) error {
	reqs := wl.requests(5, mstsearch.Options{ExactRefine: true, Refine: 1})
	nq, fq, card := len(reqs), float64(len(reqs)), wl.card
	rep := &report{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	slug := func(kind mstsearch.IndexKind) string {
		return strings.ReplaceAll(kind.String(), " ", "_")
	}

	fmt.Fprintf(w, "Index head-to-head: %s\n", wl.describe(5))
	fmt.Fprintln(w, "k-MST (DISSIM) leg:")
	fmt.Fprintln(w, "kind          total(ms)   queries/s    nodes/q   pruned%    leaf/q   reads/q")
	dbs := make(map[mstsearch.IndexKind]*mstsearch.DB)
	for _, kind := range mstsearch.IndexKinds() {
		db, err := mstsearch.NewDB(kind, wl.trajs)
		if err != nil {
			return err
		}
		db.EnableWarmBuffer()
		dbs[kind] = db
		// Untimed warmup so every kind measures the same buffer state.
		for _, r := range reqs {
			if _, err := db.Query(context.Background(), r); err != nil {
				return err
			}
		}
		var nodes, leaves int
		var reads uint64
		var pruned float64
		start := time.Now()
		for _, r := range reqs {
			resp, err := db.Query(context.Background(), r)
			if err != nil {
				return err
			}
			nodes += resp.Stats.NodesAccessed
			leaves += resp.Stats.LeavesAccessed
			reads += resp.Stats.PageReads
			pruned += resp.Stats.PruningPower
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%-12s %10.2f %11.0f %10.1f %9.1f %9.1f %9.1f\n",
			kind, float64(elapsed.Microseconds())/1000, fq/elapsed.Seconds(),
			float64(nodes)/fq, pruned/fq*100, float64(leaves)/fq, float64(reads)/fq)
		rep.Results = append(rep.Results, result{
			Name: "IndexCompare/kMST/kind=" + slug(kind), Package: "mstsearch",
			Iterations: int64(nq), NsPerOp: float64(elapsed.Nanoseconds()) / fq,
			Extra: map[string]float64{
				"nodes/q": float64(nodes) / fq, "pruned%": pruned / fq * 100,
				"leaf/q": float64(leaves) / fq, "reads/q": float64(reads) / fq,
				"queries/s": fq / elapsed.Seconds(),
			},
		})
	}

	fmt.Fprintln(w, "\nexact DTW kNN leg (k=5, same windows):")
	fmt.Fprintln(w, "kind          total(ms)   queries/s    nodes/q   evals/q   matches-linear")
	for i := range reqs {
		reqs[i].Metric = mstsearch.MetricDTW
	}
	// Brute-force baseline: every query evaluates DTW against every stored
	// trajectory. Its answers are the ground truth the index leg must hit.
	type ranked struct {
		id mstsearch.ID
		d  float64
	}
	truth := make([][]ranked, nq)
	linStart := time.Now()
	for i, r := range reqs {
		var all []ranked
		for j := range wl.trajs {
			d, ok := mstsearch.MetricDistance(mstsearch.MetricDTW, 0, r.Q, &wl.trajs[j], r.Interval.T1, r.Interval.T2)
			if !ok {
				continue
			}
			all = append(all, ranked{wl.trajs[j].ID, d})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d != all[b].d {
				return all[a].d < all[b].d
			}
			return all[a].id < all[b].id
		})
		if len(all) > 5 {
			all = all[:5]
		}
		truth[i] = all
	}
	linElapsed := time.Since(linStart)
	fmt.Fprintf(w, "%-12s %10.2f %11.0f %10s %9.1f %16s\n",
		"linear scan", float64(linElapsed.Microseconds())/1000,
		fq/linElapsed.Seconds(), "-", float64(card), "(baseline)")
	rep.Results = append(rep.Results, result{
		Name: "IndexCompare/exactDTW/kind=linear_scan", Package: "mstsearch",
		Iterations: int64(nq), NsPerOp: float64(linElapsed.Nanoseconds()) / fq,
		Extra: map[string]float64{"evals/q": float64(card), "queries/s": fq / linElapsed.Seconds()},
	})
	for _, kind := range mstsearch.IndexKinds() {
		db := dbs[kind]
		if !kind.Metric() {
			if _, err := db.Query(context.Background(), reqs[0]); err == nil {
				return fmt.Errorf("index-compare: %s accepted a DTW query; expected rejection", kind)
			}
			fmt.Fprintf(w, "%-12s %10s %11s %10s %9s   unsupported (MBB cannot bound DTW)\n", kind, "-", "-", "-", "-")
			continue
		}
		var nodes, evals, mismatches int
		start := time.Now()
		for i, r := range reqs {
			resp, err := db.Query(context.Background(), r)
			if err != nil {
				return err
			}
			nodes += resp.Stats.NodesAccessed
			evals += resp.Stats.ExactRefined
			if len(resp.Results) != len(truth[i]) {
				mismatches++
				continue
			}
			for j, res := range resp.Results {
				if res.TrajID != truth[i][j].id || res.Dissim != truth[i][j].d {
					mismatches++
					break
				}
			}
		}
		elapsed := time.Since(start)
		match := "yes"
		if mismatches > 0 {
			match = fmt.Sprintf("NO (%d/%d)", mismatches, nq)
		}
		fmt.Fprintf(w, "%-12s %10.2f %11.0f %10.1f %9.1f %16s\n",
			kind, float64(elapsed.Microseconds())/1000, fq/elapsed.Seconds(),
			float64(nodes)/fq, float64(evals)/fq, match)
		rep.Results = append(rep.Results, result{
			Name: "IndexCompare/exactDTW/kind=" + slug(kind), Package: "mstsearch",
			Iterations: int64(nq), NsPerOp: float64(elapsed.Nanoseconds()) / fq,
			Extra: map[string]float64{
				"nodes/q": float64(nodes) / fq, "evals/q": float64(evals) / fq,
				"queries/s": fq / elapsed.Seconds(), "mismatches": float64(mismatches),
			},
		})
		if mismatches > 0 {
			return fmt.Errorf("index-compare: %s exact DTW kNN diverged from the linear scan on %d/%d queries", kind, mismatches, nq)
		}
	}

	if jsonPath == "" {
		return nil
	}
	if err := rep.write(jsonPath, w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s (%d results)\n", jsonPath, len(rep.Results))
	return nil
}
