package mstsearch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/ntree"
	"mstsearch/internal/storage"
)

// The metric differential oracle: every exact-metric kNN answer the
// N-tree produces — serial, parallel, and batch — must match a
// brute-force scan that evaluates the same EvalMetric code path against
// every stored trajectory. The scan touches no index, so agreement
// certifies the metric search stack (pivot descent, triangle-bound
// pruning, leaf refinement) end to end. Distances must be bit-identical:
// the tree's exact refinement and the oracle call the same function on
// the same operands.

// metricLinearTopK is the brute-force exact-metric oracle.
func metricLinearTopK(trajs []Trajectory, q *Trajectory, t1, t2 float64, k int, m Metric, eps float64) []scanHit {
	var hits []scanHit
	for i := range trajs {
		d, ok := MetricDistance(m, eps, q, &trajs[i], t1, t2)
		if !ok {
			continue
		}
		hits = append(hits, scanHit{id: trajs[i].ID, d: d})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].id < hits[j].id
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// checkMetricOracle compares an index answer against the metric oracle:
// same members, same order, bit-identical distances.
func checkMetricOracle(t *testing.T, label string, iter int, res []Result, want []scanHit) {
	t.Helper()
	if len(res) != len(want) {
		t.Fatalf("%s iter %d: got %d results, oracle %d", label, iter, len(res), len(want))
	}
	for j := range want {
		if res[j].TrajID != want[j].id {
			t.Fatalf("%s iter %d: rank %d = traj %d (%g), oracle %d (%g)",
				label, iter, j, res[j].TrajID, res[j].Dissim, want[j].id, want[j].d)
		}
		if math.Float64bits(res[j].Dissim) != math.Float64bits(want[j].d) {
			t.Fatalf("%s iter %d: traj %d distance %g not bit-identical to oracle %g",
				label, iter, res[j].TrajID, res[j].Dissim, want[j].d)
		}
		if !res[j].Certified {
			t.Fatalf("%s iter %d: unbudgeted metric search left result %d uncertified",
				label, iter, res[j].TrajID)
		}
	}
}

// TestMetricDifferentialOracle runs randomized GSTD fleets × all four
// metrics (DISSIM through the metric engine, plus DTW/LCSS/EDR) ×
// {serial, Parallelism=4, batch} on the N-tree, each answer checked
// against the brute-force oracle and each parallel answer bit-identical
// to its serial twin.
func TestMetricDifferentialOracle(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 32, SamplesPerObject: 81, Seed: 5}).Trajs
	db, err := NewDB(NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	metrics := []struct {
		m   Metric
		eps float64
	}{
		{MetricDISSIM, 0},
		{MetricDTW, 0},
		{MetricLCSS, 0.05},
		{MetricEDR, 0.05},
	}
	const queriesPerMetric = 24
	for _, mc := range metrics {
		t.Run(mc.m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 * int64(mc.m)))
			serialOut := make([][]Result, queriesPerMetric)
			batch := make([]BatchQuery, queriesPerMetric)
			for i := 0; i < queriesPerMetric; i++ {
				var q *Trajectory
				if i%3 == 0 {
					c := trajs[rng.Intn(len(trajs))].Clone()
					q = &c
				} else {
					q = oracleQuery(rng, 61)
				}
				t1, t2 := oracleWindow(rng)
				k := 1 + rng.Intn(5)
				want := metricLinearTopK(trajs, q, t1, t2, k, mc.m, mc.eps)

				req := Request{
					Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
					Metric: mc.m, MetricEps: mc.eps,
					Options: Options{ExactRefine: true, Refine: 1, Parallelism: 1},
				}
				resp, err := db.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("iter %d serial: %v", i, err)
				}
				checkMetricOracle(t, "serial", i, resp.Results, want)

				preq := req
				preq.Options.Parallelism = 4
				presp, err := db.Query(context.Background(), preq)
				if err != nil {
					t.Fatalf("iter %d parallel: %v", i, err)
				}
				checkMetricOracle(t, "parallel", i, presp.Results, want)
				checkBitIdentical(t, "metric-single", i, resp.Results, presp.Results)

				serialOut[i] = resp.Results
				batch[i] = BatchQuery{Q: q, T1: t1, T2: t2, K: k, Metric: mc.m, MetricEps: mc.eps}
			}
			for i, br := range db.KMostSimilarBatch(context.Background(), batch,
				Options{ExactRefine: true, Refine: 1, Parallelism: 4}) {
				if br.Err != nil {
					t.Fatalf("batch slot %d: %v", i, br.Err)
				}
				checkBitIdentical(t, "metric-batch", i, serialOut[i], br.Results)
			}
		})
	}
}

// TestMetricAppendOracle interleaves bursts of AppendSample with metric
// kNN queries on a multi-level N-tree: every answer, serial and
// Parallelism=4, must match the brute-force oracle over the updated
// trajectories bit for bit, and the tree's invariants must hold after
// every append. Bursts aim at leaf and routing-entry pivots, whose
// repair recomputes a whole subtree's distances. Mid-stream the store is
// reopened through OpenDurable (snapshot plus replayed appends) and then
// through Save/Load, and the appends carry on on the reopened tree.
func TestMetricAppendOracle(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 220, SamplesPerObject: 21, Seed: 9}).Trajs
	cur := make([]Trajectory, len(trajs)) // the oracle's copy, appended in step
	at := make(map[ID]int, len(trajs))
	for i := range trajs {
		cur[i] = trajs[i].Clone()
		at[trajs[i].ID] = i
	}
	dir := t.TempDir()
	opts := DurableOptions{Sync: SyncOff, CheckpointBytes: -1}
	db, err := OpenDurable(dir, NTree, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if piv, err := NTreePivots(db); err != nil || len(piv) < 3 {
		t.Fatalf("tree has %d nodes (%v); want several levels", len(piv), err)
	}

	rng := rand.New(rand.NewSource(9))
	appendTo := func(id ID) {
		t.Helper()
		x := &cur[at[id]]
		last := x.Samples[len(x.Samples)-1]
		s := Sample{
			X: last.X + rng.NormFloat64()*0.02,
			Y: last.Y + rng.NormFloat64()*0.02,
			T: last.T + 0.01 + rng.Float64()*0.05,
		}
		if err := db.AppendSample(id, s); err != nil {
			t.Fatalf("append to %d: %v", id, err)
		}
		x.Samples = append(x.Samples, s)
		if err := CheckNTreeInvariants(db); err != nil {
			t.Fatalf("after append to %d: %v", id, err)
		}
	}
	metrics := []struct {
		m   Metric
		eps float64
	}{{MetricDISSIM, 0}, {MetricDTW, 0}, {MetricLCSS, 0.05}, {MetricEDR, 0.05}}
	iter := 0
	queryAll := func(label string) {
		t.Helper()
		for _, mc := range metrics {
			for j := 0; j < 3; j++ {
				var q *Trajectory
				var t1, t2 float64
				if j == 0 {
					q = oracleQuery(rng, 61)
					t1, t2 = oracleWindow(rng)
				} else {
					// A grown trajectory as the query, over a window
					// reaching into the appended tails.
					c := cur[rng.Intn(len(cur))].Clone()
					c.ID = 0
					q = &c
					t2 = q.EndTime()
					t1 = t2 - 0.1 - rng.Float64()*0.5
				}
				k := 1 + rng.Intn(5)
				want := metricLinearTopK(cur, q, t1, t2, k, mc.m, mc.eps)
				for _, par := range []int{1, 4} {
					resp, err := db.Query(context.Background(), Request{
						Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
						Metric: mc.m, MetricEps: mc.eps,
						Options: Options{ExactRefine: true, Refine: 1, Parallelism: par},
					})
					if err != nil {
						t.Fatalf("%s %s iter %d: %v", label, mc.m, iter, err)
					}
					checkMetricOracle(t, label+"/"+mc.m.String(), iter, resp.Results, want)
				}
				iter++
			}
		}
	}

	queryAll("fresh")
	for burst := 0; burst < 9; burst++ {
		switch burst {
		case 3:
			// Reopen: snapshot load plus replay of the appends since
			// the checkpoint, all onto the reopened tree.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = OpenDurable(dir, NTree, opts); err != nil {
				t.Fatal(err)
			}
		case 6:
			path := filepath.Join(t.TempDir(), "ntree.mstdb")
			if err := db.Save(path); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Load(path); err != nil {
				t.Fatal(err)
			}
		}
		var ids []ID
		if burst%3 == 0 {
			if ids, err = NTreePivots(db); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 12; i++ {
			ids = append(ids, cur[rng.Intn(len(cur))].ID)
		}
		for _, id := range ids {
			appendTo(id)
		}
		queryAll("burst")
	}
}

// TestNTreeFailedRepairRebuilds: when the in-place repair fails, the
// append is rolled back and the tree is rebuilt from the store, so the DB
// is left consistent and the next append repairs normally.
func TestNTreeFailedRepairRebuilds(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 40, SamplesPerObject: 21, Seed: 10}).Trajs
	db, err := NewDB(NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	// An empty tree indexes nobody, so the next repair cannot find its leaf.
	db.eng = &ntreeEngine{t: ntree.New(storage.NewFile(db.file.PageSize()), db.lookupLocked)}
	id := trajs[3].ID
	n := len(trajs[3].Samples)
	end := trajs[3].EndTime()
	if err := db.AppendSample(id, Sample{X: 0.5, Y: 0.5, T: end + 0.1}); err == nil {
		t.Fatal("append on a tree that does not index the trajectory succeeded")
	}
	if got := len(db.Get(id).Samples); got != n {
		t.Fatalf("failed append left %d samples, want %d", got, n)
	}
	if err := CheckNTreeInvariants(db); err != nil {
		t.Fatalf("tree not rebuilt after the failed repair: %v", err)
	}
	if err := db.AppendSample(id, Sample{X: 0.5, Y: 0.5, T: end + 0.1}); err != nil {
		t.Fatalf("append after the rebuild: %v", err)
	}
	if err := CheckNTreeInvariants(db); err != nil {
		t.Fatal(err)
	}
}

// TestMetricDegradedBudgetParity pins the degradation contract on the
// metric engine: under a tight node budget the search must report
// Degraded, stay bit-identical between serial and parallel runs, and
// every result it still marks Certified must hold its oracle rank.
func TestMetricDegradedBudgetParity(t *testing.T) {
	// Enough objects to force a multi-level tree (a 4 KiB page holds ~63
	// metric leaf entries), so a tight budget actually runs out mid-walk.
	trajs := gstd.Generate(gstd.Config{NumObjects: 220, SamplesPerObject: 21, Seed: 6}).Trajs
	db, err := NewDB(NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	degraded := 0
	const iters = 40
	for i := 0; i < iters; i++ {
		q := oracleQuery(rng, 61)
		t1, t2 := oracleWindow(rng)
		k := 1 + rng.Intn(4)
		opts := Options{
			ExactRefine: true, Refine: 1, Parallelism: 1,
			MaxNodeAccesses: 1 + rng.Intn(3), // tight: most searches degrade
		}
		req := Request{
			Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
			Metric: MetricDTW, Options: opts,
		}
		resp, err := db.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("iter %d serial: %v", i, err)
		}
		preq := req
		preq.Options.Parallelism = 4
		presp, err := db.Query(context.Background(), preq)
		if err != nil {
			t.Fatalf("iter %d parallel: %v", i, err)
		}
		checkBitIdentical(t, "degraded", i, resp.Results, presp.Results)
		if resp.Stats.Degraded {
			degraded++
		}
		want := metricLinearTopK(trajs, q, t1, t2, k, MetricDTW, 0)
		for j, r := range resp.Results {
			if !r.Certified {
				continue
			}
			if j >= len(want) || want[j].id != r.TrajID ||
				math.Float64bits(want[j].d) != math.Float64bits(r.Dissim) {
				t.Fatalf("iter %d: certified rank %d (traj %d, %g) does not hold against the oracle",
					i, j, r.TrajID, r.Dissim)
			}
		}
	}
	if degraded == 0 {
		t.Fatalf("no search degraded under 1-3 node budgets across %d iterations", iters)
	}
}

// TestMetricUnsupportedKind: the MBB kinds must reject non-DISSIM
// metrics with ErrBadQuery — their geometry cannot lower-bound DTW — and
// ParseMetric must reject unknown names with ErrUnknownMetric.
func TestMetricUnsupportedKind(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 8, SamplesPerObject: 21, Seed: 7}).Trajs
	q := trajs[0].Clone()
	q.ID = 0
	for _, kind := range IndexKinds() {
		if kind.Metric() {
			continue
		}
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Metric{MetricDTW, MetricLCSS, MetricEDR} {
			_, err := db.Query(context.Background(), Request{
				Q: &q, Interval: Interval{T1: 0, T2: 1}, K: 1, Metric: m, MetricEps: 0.1,
			})
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("%s: %s query returned %v, want ErrBadQuery", kind, m, err)
			}
			if _, err := db.Explain(context.Background(), Request{
				Q: &q, Interval: Interval{T1: 0, T2: 1}, K: 1, Metric: m, MetricEps: 0.1,
			}); !errors.Is(err, ErrBadQuery) {
				t.Fatalf("%s: %s explain returned %v, want ErrBadQuery", kind, m, err)
			}
		}
	}
	for _, name := range []string{"cosine", "frechet", "x"} {
		if _, err := ParseMetric(name); !errors.Is(err, ErrUnknownMetric) {
			t.Fatalf("ParseMetric(%q) = %v, want ErrUnknownMetric", name, err)
		}
	}
	for name, want := range map[string]Metric{
		"": MetricDISSIM, "dissim": MetricDISSIM, "dtw": MetricDTW,
		"lcss": MetricLCSS, "edr": MetricEDR, "DTW": MetricDTW,
	} {
		m, err := ParseMetric(name)
		if err != nil || m != want {
			t.Fatalf("ParseMetric(%q) = %v, %v, want %v", name, m, err, want)
		}
	}
}
