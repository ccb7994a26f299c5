package mstsearch

import (
	"context"
	"runtime"
	"sync"
	"time"

	"mstsearch/internal/storage"
)

// BatchQuery is one query of a KMostSimilarBatch call: the k most similar
// stored trajectories to Q over [T1, T2].
type BatchQuery struct {
	Q      *Trajectory
	T1, T2 float64
	K      int

	// Metric and MetricEps select this slot's distance function, as in
	// Request: the zero value is DISSIM, the baseline metrics require a
	// metric index kind.
	Metric    Metric
	MetricEps float64

	// Ctx, when non-nil, governs this slot alone: the slot aborts when
	// either Ctx or the batch-level context is done, so a serving layer
	// can coalesce requests with different deadlines onto one batch
	// without the shortest deadline canceling its neighbours. Nil means
	// the batch-level context alone.
	Ctx context.Context

	// Opts, when non-nil, overrides the batch-level Options for this slot
	// (per-tenant budgets under a shared executor). Parallelism is still
	// taken from the batch-level Options — it sizes the worker pool, a
	// batch-wide property. Nil means the batch-level Options.
	Opts *Options
}

// BatchResult is one query's outcome within a batch. Failures are
// isolated per query: Err is set for this slot only and the rest of the
// batch still executes (and Results/Stats are valid whenever Err is nil).
type BatchResult struct {
	Results []Result
	Stats   SearchStats
	Err     error
}

// KMostSimilarBatch answers many k-MST queries as one unit of work on a
// bounded worker pool — the serving-path executor for query-heavy
// workloads. Results come back in input order.
//
// Concurrency: opts.Parallelism caps the worker goroutines (<= 0 means
// GOMAXPROCS; the cap never exceeds the batch size). Every query of the
// batch reads through one shared warm buffer — the DB's warm pool when
// EnableWarmBuffer is on, otherwise a batch-local striped pool with the
// paper's capacity policy — so repeated page accesses across the batch hit
// cache instead of re-paying physical reads. Results are bit-identical to
// running each query serially with the same Options: workers never share
// mutable search state, and intra-query parallel refinement is
// admission-deterministic.
//
// Snapshot semantics: the batch holds the DB's read lock for its whole
// duration, so mutations (Add, AppendSample, Recover) wait for the batch
// and every query in it sees the same index version.
//
// Cancellation: ctx aborts queries between node visits; already-finished
// slots keep their results and canceled slots report an error wrapping
// ErrCanceled.
func (db *DB) KMostSimilarBatch(ctx context.Context, queries []BatchQuery, opts Options) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	db.mu.RLock()
	defer db.mu.RUnlock()

	bp := db.warm
	if bp == nil {
		bp = storage.NewPaperPool(db.wrappedFile(), 0)
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				bq := queries[i]
				slotCtx, slotOpts, stop := slotContext(ctx, bq, opts)
				start := time.Now()
				res, st, err := db.kMostSimilarOn(slotCtx, bp, bq.Q, bq.T1, bq.T2, bq.K, bq.Metric, bq.MetricEps, slotOpts)
				stop()
				out[i] = BatchResult{Results: res, Stats: st, Err: err}
				d := metBatch.record(start, st.Degraded, err)
				db.slow.observe("batch", d, bq.K, Interval{bq.T1, bq.T2}, st, err)
			}
		}()
	}
	for i := range queries {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// slotContext resolves one batch slot's effective context and options:
// the slot's own Ctx (linked to the batch context, so either aborts it)
// and Opts when set, the batch-level values otherwise. stop releases the
// linkage resources and must be called when the slot finishes.
func slotContext(batchCtx context.Context, bq BatchQuery, batchOpts Options) (context.Context, Options, context.CancelFunc) {
	opts := batchOpts
	if bq.Opts != nil {
		opts = *bq.Opts
		opts.Parallelism = batchOpts.Parallelism // pool sizing stays batch-wide
	}
	if bq.Ctx == nil {
		return batchCtx, opts, func() {}
	}
	ctx, stop := mergeCancel(bq.Ctx, batchCtx)
	return ctx, opts, stop
}

// mergeCancel derives a context from primary that is additionally
// canceled when secondary is done. The primary carries the values and
// deadline; secondary contributes only its cancellation signal.
func mergeCancel(primary, secondary context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(primary)
	unlink := context.AfterFunc(secondary, cancel)
	return ctx, func() {
		unlink()
		cancel()
	}
}
