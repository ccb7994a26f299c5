package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mstsearch"
	"mstsearch/internal/baselines"
	"mstsearch/internal/server"
	"mstsearch/internal/trajectory"
)

// The correctness gate runs outside the timed phases. Sampled queries go
// through the same HTTP path as the load, and their answers are compared
// with a brute-force scan of the fleet as the store holds it at gate
// time: baselines.LinearScanMST for DISSIM, a MetricDistance scan for
// DTW/LCSS/EDR. Any mismatch fails the run.

// gateQueries is how many sampled queries each run checks.
const gateQueries = 24

// storedFleet reads every trajectory back through the engine.
func storedFleet(e server.Engine, ids []mstsearch.ID) ([]mstsearch.Trajectory, error) {
	out := make([]mstsearch.Trajectory, 0, len(ids))
	for _, id := range ids {
		tr := e.Get(id)
		if tr == nil {
			return nil, fmt.Errorf("trajectory %d missing from the store", id)
		}
		out = append(out, tr.Clone())
	}
	return out, nil
}

// scanHit is one answer of a brute-force scan.
type scanHit struct {
	id mstsearch.ID
	d  float64
}

// expected computes the brute-force answer to a wire query.
func expected(fleet []mstsearch.Trajectory, req server.QueryRequest) ([]scanHit, mstsearch.Metric, error) {
	q := fromWire(req.Query)
	m, err := mstsearch.ParseMetric(req.Metric)
	if err != nil {
		return nil, 0, err
	}
	if m == mstsearch.MetricDISSIM {
		scan := baselines.LinearScanMST(&trajectory.Dataset{Trajs: fleet}, &q, req.T1, req.T2, req.K)
		hits := make([]scanHit, len(scan))
		for i, s := range scan {
			hits[i] = scanHit{s.TrajID, s.Dissim}
		}
		return hits, m, nil
	}
	var hits []scanHit
	for i := range fleet {
		if d, ok := mstsearch.MetricDistance(m, req.MetricEps, &q, &fleet[i], req.T1, req.T2); ok {
			hits = append(hits, scanHit{fleet[i].ID, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].id < hits[j].id
	})
	if len(hits) > req.K {
		hits = hits[:req.K]
	}
	return hits, m, nil
}

// checkAnswer compares a served answer with the scan: the same IDs in
// the same order, every result certified, DISSIM values within the
// engine's stated error band and metric distances bit-identical.
func checkAnswer(got *server.QueryResponse, want []scanHit, m mstsearch.Metric) error {
	if got.Degraded {
		return fmt.Errorf("answer degraded")
	}
	if len(got.Results) != len(want) {
		return fmt.Errorf("%d results, scan has %d", len(got.Results), len(want))
	}
	for i, w := range want {
		g := got.Results[i]
		if mstsearch.ID(g.ID) != w.id {
			return fmt.Errorf("rank %d: trajectory %d (%g), scan has %d (%g)", i, g.ID, g.Dissim, w.id, w.d)
		}
		if !g.Certified {
			return fmt.Errorf("rank %d: trajectory %d not certified", i, g.ID)
		}
		if m == mstsearch.MetricDISSIM {
			if tol := g.Err + 1e-9*(1+math.Abs(w.d)); math.Abs(g.Dissim-w.d) > tol {
				return fmt.Errorf("rank %d: trajectory %d dissim %g, scan %g", i, g.ID, g.Dissim, w.d)
			}
		} else if math.Float64bits(g.Dissim) != math.Float64bits(w.d) {
			return fmt.Errorf("rank %d: trajectory %d distance %g, scan %g", i, g.ID, g.Dissim, w.d)
		}
	}
	return nil
}

// gatePair is one checked (query, answer) pair, kept for the traced
// run's kernel timings.
type gatePair struct {
	req  server.QueryRequest
	hits []scanHit
}

// runGate sends gateQueries sampled queries and checks each answer.
func runGate(ctx context.Context, w workload, cl *server.Client, e server.Engine, ids []mstsearch.ID, rng *rand.Rand) ([]gatePair, error) {
	fleet, err := storedFleet(e, ids)
	if err != nil {
		return nil, err
	}
	pairs := make([]gatePair, 0, gateQueries)
	for i := 0; i < gateQueries; i++ {
		req := w.query(rng, i)
		want, m, err := expected(fleet, req)
		if err != nil {
			return nil, err
		}
		got, err := cl.Query(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("gate query %d: %w", i, err)
		}
		if err := checkAnswer(got, want, m); err != nil {
			return nil, fmt.Errorf("gate query %d (%s): %w", i, m, err)
		}
		pairs = append(pairs, gatePair{req, want})
	}
	return pairs, nil
}

// checkAcked verifies that every acknowledged append reads back through
// Get after a reopen, in acknowledgement order.
func checkAcked(e server.Engine, acked map[mstsearch.ID][]mstsearch.Sample) error {
	for id, samples := range acked {
		tr := e.Get(id)
		if tr == nil {
			return fmt.Errorf("trajectory %d missing after reopen", id)
		}
		j := 0
		for _, s := range tr.Samples {
			if j < len(samples) && s == samples[j] {
				j++
			}
		}
		if j != len(samples) {
			return fmt.Errorf("trajectory %d: %d of %d acknowledged appends read back", id, j, len(samples))
		}
	}
	return nil
}

// fromWire converts a wire trajectory.
func fromWire(tj server.TrajectoryJSON) mstsearch.Trajectory {
	tr := mstsearch.Trajectory{ID: mstsearch.ID(tj.ID), Samples: make([]mstsearch.Sample, len(tj.Samples))}
	for i, s := range tj.Samples {
		tr.Samples[i] = mstsearch.Sample{X: s[0], Y: s[1], T: s[2]}
	}
	return tr
}
