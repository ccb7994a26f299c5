package mst

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/ntree"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// collectEvents runs one traced search and returns the events alongside
// the results and stats.
func collectEvents(t *testing.T, opts Options, data *trajectory.Dataset, tr *rtree.Tree, q *trajectory.Trajectory, t1, t2 float64) ([]TraceEvent, []Result, Stats) {
	t.Helper()
	return traced(t, opts, func(o Options) ([]Result, Stats, error) { return Search(tr, q, t1, t2, o) })
}

// traced runs search with a recording trace hook.
func traced(t *testing.T, opts Options, search func(Options) ([]Result, Stats, error)) ([]TraceEvent, []Result, Stats) {
	t.Helper()
	var events []TraceEvent
	opts.Trace = func(ev TraceEvent) { events = append(events, ev) }
	res, st, err := search(opts)
	if err != nil {
		t.Fatal(err)
	}
	return events, res, st
}

func buildNTree(tb testing.TB, data *trajectory.Dataset, pageSize int) *ntree.Tree {
	t := ntree.New(storage.NewFile(pageSize), data.Get)
	for i := range data.Trajs {
		if err := t.InsertTrajectory(&data.Trajs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// TestTraceContract is the reconciliation gate between the event stream
// and the search statistics: every counter in Stats must be derivable
// from the trace, so the two views of a query can never drift apart. It
// runs on both engines: the MBB search over an R-tree and the metric
// search over an N-tree (DISSIM and DTW).
func TestTraceContract(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := makeDataset(rng, 40, 100)
	rt := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[3], 10, 80)
	nrng := rand.New(rand.NewSource(79))
	ndata := makeDataset(nrng, 300, 100)
	nt := buildNTree(t, ndata, 512) // deep enough to prune subtrees at enqueue
	nq := queryFrom(nrng, &ndata.Trajs[3], 10, 80)

	engines := []struct {
		name   string
		data   *trajectory.Dataset
		metric bool // no §4.4 refine stage; Data is always required
		search func(Options) ([]Result, Stats, error)
	}{
		{"rtree", data, false, func(o Options) ([]Result, Stats, error) { return Search(rt, &q, 10, 80, o) }},
		{"ntree-dissim", ndata, true, func(o Options) ([]Result, Stats, error) {
			return MetricSearchContext(context.Background(), nt, &nq, 10, 80, MetricDISSIM, 0, o)
		}},
		{"ntree-dtw", ndata, true, func(o Options) ([]Result, Stats, error) {
			return MetricSearchContext(context.Background(), nt, &nq, 10, 80, MetricDTW, 0, o)
		}},
	}
	subtreePrunes := 0
	for _, tc := range []struct {
		name    string
		opts    Options
		refined bool
	}{
		{"refined", Options{K: 5, Refine: 1}, true},
		{"unrefined", Options{K: 3, Refine: 1}, false},
		{"no-heuristics", Options{K: 3, Refine: 1, DisableHeuristic1: true, DisableHeuristic2: true}, false},
		{"budgeted", Options{K: 3, Refine: 1, MaxNodeAccesses: 4}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range engines {
				opts := tc.opts
				if tc.refined || eng.metric {
					opts.Data = eng.data
				}
				events, res, st := traced(t, opts, eng.search)
				subtreePrunes += checkTraceContract(t, eng.name, eng.metric, events, res, st)
			}
		})
	}
	if subtreePrunes == 0 {
		t.Error("no N-tree leg pruned a subtree: the Heuristic-2 prune reconciliation went unexercised")
	}
}

// checkTraceContract reconciles one search's events with its stats and
// returns the number of Heuristic-2 subtree prunes it saw.
func checkTraceContract(t *testing.T, engine string, metric bool, events []TraceEvent, res []Result, st Stats) int {
	t.Helper()
	count := map[EventKind]int{}
	leaves, h1Prunes, h2Prunes := 0, 0, 0
	admitted := map[trajectory.ID]bool{}
	for _, ev := range events {
		count[ev.Kind]++
		switch ev.Kind {
		case EventNodeVisit:
			if ev.Leaf {
				leaves++
			}
		case EventCandidateAdmit:
			admitted[ev.TrajID] = true
		case EventCandidatePrune:
			// Heuristic 1 rejects a candidate; the metric engine also
			// prunes whole subtrees at enqueue time under Heuristic 2.
			switch {
			case ev.Heuristic == 1:
				h1Prunes++
			case ev.Heuristic == 2 && metric:
				h2Prunes++
			default:
				t.Errorf("%s: prune event blames heuristic %d", engine, ev.Heuristic)
			}
		case EventEarlyTerminate:
			if ev.Heuristic != 2 {
				t.Errorf("%s: early-terminate event blames heuristic %d, want 2", engine, ev.Heuristic)
			}
		}
	}

	if got := count[EventNodeVisit]; got != st.NodesAccessed {
		t.Errorf("%s: node-visit events %d != NodesAccessed %d", engine, got, st.NodesAccessed)
	}
	if leaves != st.LeavesAccessed {
		t.Errorf("%s: leaf visit events %d != LeavesAccessed %d", engine, leaves, st.LeavesAccessed)
	}
	if got := count[EventNodeEnqueue]; got != st.Enqueued {
		t.Errorf("%s: node-enqueue events %d != Enqueued %d", engine, got, st.Enqueued)
	}
	if h1Prunes != st.Rejected {
		t.Errorf("%s: heuristic-1 prune events %d != Rejected %d", engine, h1Prunes, st.Rejected)
	}
	if got := count[EventCandidateComplete]; got != st.Completed {
		t.Errorf("%s: candidate-complete events %d != Completed %d", engine, got, st.Completed)
	}
	if got := count[EventRefined]; got != st.ExactRefined {
		t.Errorf("%s: refined events %d != ExactRefined %d", engine, got, st.ExactRefined)
	}
	if st.TerminatedEarly && count[EventEarlyTerminate] != 1 {
		t.Errorf("%s: early-terminated search emitted %d early-terminate events, want 1", engine, count[EventEarlyTerminate])
	}
	if st.Degraded && count[EventBudgetExhausted] != 1 {
		t.Errorf("%s: degraded search emitted %d budget-exhausted events, want 1", engine, count[EventBudgetExhausted])
	}
	// The metric engine evaluates every candidate exactly on admission and
	// has no refinement stage to bracket.
	if !metric && st.ExactRefined > 0 && (count[EventRefineStart] != 1 || count[EventRefineDone] != 1) {
		t.Errorf("%s: refinement ran but start/done events = %d/%d, want 1/1",
			engine, count[EventRefineStart], count[EventRefineDone])
	}
	for _, r := range res {
		if !admitted[r.TrajID] {
			t.Errorf("%s: result trajectory %d never appeared in a candidate-admit event", engine, r.TrajID)
		}
	}
	return h2Prunes
}

// TestTraceDoesNotChangeResults pins the observer-effect contract: the
// same query traced and untraced returns bit-identical answers and the
// same work profile.
func TestTraceDoesNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	data := makeDataset(rng, 30, 50)
	tr := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[5], 5, 45)

	opts := Options{K: 4, Refine: 1, Data: data}
	plain, pst, err := Search(tr, &q, 5, 45, opts)
	if err != nil {
		t.Fatal(err)
	}
	events, traced, tst := collectEvents(t, opts, data, tr, &q, 5, 45)
	if len(events) == 0 {
		t.Fatal("traced run delivered no events")
	}
	if len(plain) != len(traced) {
		t.Fatalf("traced run returned %d results, untraced %d", len(traced), len(plain))
	}
	for i := range plain {
		if plain[i].TrajID != traced[i].TrajID ||
			math.Float64bits(plain[i].Dissim) != math.Float64bits(traced[i].Dissim) {
			t.Fatalf("rank %d: untraced %+v != traced %+v", i, plain[i], traced[i])
		}
	}
	if pst != tst {
		t.Fatalf("stats drifted under tracing: untraced %+v, traced %+v", pst, tst)
	}
}

// TestEventKindString pins the taxonomy's names (they appear in EXPLAIN
// transcripts and logs, so renames are breaking).
func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EventNodeEnqueue:       "node-enqueue",
		EventNodeVisit:         "node-visit",
		EventCandidateAdmit:    "candidate-admit",
		EventCandidateComplete: "candidate-complete",
		EventCandidatePrune:    "candidate-prune",
		EventEarlyTerminate:    "early-terminate",
		EventBudgetExhausted:   "budget-exhausted",
		EventRefineStart:       "refine-start",
		EventRefined:           "refined",
		EventRefineDone:        "refine-done",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}
