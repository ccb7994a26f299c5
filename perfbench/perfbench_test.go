package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"mstsearch"
	"mstsearch/internal/server"
)

// TestTinyRuns runs every workload, untraced and traced, at a tiny size:
// every phase completes, the gate passes and every metric is reported.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.tiny(), traced
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, prov, err := run(context.Background(), w, 3, 1, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("gate failed: %v", prov["gate_error"])
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := endToEndUnits
				if traced {
					want = layerUnits
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != unit {
						t.Errorf("metric %s = %+v", name, m)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestGateRejectsCorruptedAnswers feeds the gate a correct answer list
// and corrupted copies of it.
func TestGateRejectsCorruptedAnswers(t *testing.T) {
	for _, metric := range []string{"", "dtw"} {
		w := workloads[0]
		w.Objects, w.Samples, w.Metrics = 40, 32, []string{metric}
		fleet := w.fleet(9)
		req := w.query(newRand(4), 0)
		want, m, err := expected(fleet, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != w.K {
			t.Fatalf("scan found %d answers, want %d", len(want), w.K)
		}
		answer := func() *server.QueryResponse {
			resp := &server.QueryResponse{}
			for _, h := range want {
				resp.Results = append(resp.Results, server.ResultJSON{ID: uint32(h.id), Dissim: h.d, Certified: true})
			}
			return resp
		}
		if err := checkAnswer(answer(), want, m); err != nil {
			t.Fatalf("metric %q: correct answer rejected: %v", metric, err)
		}
		corruptions := map[string]func(*server.QueryResponse){
			"swapped ranks": func(r *server.QueryResponse) { r.Results[0], r.Results[1] = r.Results[1], r.Results[0] },
			"wrong id":      func(r *server.QueryResponse) { r.Results[2].ID += 1000 },
			"dropped":       func(r *server.QueryResponse) { r.Results = r.Results[:len(r.Results)-1] },
			"uncertified":   func(r *server.QueryResponse) { r.Results[1].Certified = false },
			"distance off":  func(r *server.QueryResponse) { r.Results[3].Dissim *= 1.001 },
			"degraded":      func(r *server.QueryResponse) { r.Degraded = true },
		}
		for name, corrupt := range corruptions {
			resp := answer()
			corrupt(resp)
			if err := checkAnswer(resp, want, m); err == nil {
				t.Errorf("metric %q: %s answer accepted", metric, name)
			}
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls the first call of a fixed-rate
// schedule: the calls queued behind it are charged from their due time,
// not from when the generator got round to sending them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	res := openLoop(context.Background(), 100, 5, 1, time.Second, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(res.calls) != 5 || res.failed != 0 {
		t.Fatalf("%d calls, %d failed", len(res.calls), res.failed)
	}
	for _, c := range res.calls[1:] {
		// Call i is due at i×10 ms but cannot start before the stall
		// ends at 60 ms.
		if want := stall - c.due; c.latency < want {
			t.Errorf("call due at %v: latency %v, want at least %v", c.due, c.latency, want)
		}
	}
	if res.late[1] < 40*time.Millisecond {
		t.Errorf("second call sent %v late, want at least 40ms", res.late[1])
	}
}

// slowBatch is an engine whose batch call takes a fixed time.
type slowBatch struct{ server.Engine }

func (slowBatch) KMostSimilarBatch(_ context.Context, qs []mstsearch.BatchQuery, _ mstsearch.Options) []mstsearch.BatchResult {
	time.Sleep(30 * time.Millisecond)
	return make([]mstsearch.BatchResult, len(qs))
}

// TestBatchChargesWholeSpan checks the traced engine on a coalesced
// batch: every member request waited for the whole batch, so each is
// charged its full span, while the per-query engine cost is the span
// shared out.
func TestBatchChargesWholeSpan(t *testing.T) {
	tr := &tracer{}
	tr.on.Store(true)
	e := &tracedEngine{Engine: slowBatch{}, t: tr}
	spans := make([]*reqSpan, 3)
	qs := make([]mstsearch.BatchQuery, len(spans))
	for i := range spans {
		spans[i] = &reqSpan{}
		qs[i].Ctx = context.WithValue(context.Background(), spanKey{}, spans[i])
	}
	e.KMostSimilarBatch(context.Background(), qs, mstsearch.DefaultOptions())
	for i, sp := range spans {
		if got := time.Duration(sp.engineNS.Load()); got < 30*time.Millisecond {
			t.Errorf("request %d charged %v of engine time, want the whole batch span", i, got)
		}
	}
	if len(tr.queryMS) != len(qs) {
		t.Fatalf("%d query spans, want %d", len(tr.queryMS), len(qs))
	}
	for _, d := range tr.queryMS {
		if d >= 30 {
			t.Errorf("per-query engine span %.1f ms, want the batch span over %d", d, len(qs))
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %g %g, median %g", q1, q3, median(xs))
	}
}

// TestQuietQuartiles pins the figures taken over windows and repeats:
// the lower quartile of times and the upper one of rates, so that a few
// disturbed windows do not move them.
func TestQuietQuartiles(t *testing.T) {
	times := []float64{5, 1, 4, 90, 2, 3, 80, 6}
	if got := quietTime(times); got != 2 {
		t.Errorf("quietTime = %g, want 2", got)
	}
	rates := []float64{100, 10, 98, 99, 20, 97, 101, 96}
	if got := quietRate(rates); got != 99 {
		t.Errorf("quietRate = %g, want 99", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// runs print in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d defined", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		def, err := workloadByName(w.Name)
		if err != nil {
			t.Error(err)
		} else if def.Why != w.Why {
			t.Errorf("workload %s: why %q in BENCHMARK.json, %q in the code", w.Name, w.Why, def.Why)
		}
	}
	for _, c := range []struct {
		kind  string
		spec  []struct{ Name, Unit string }
		units map[string]string
	}{
		{"end-to-end", spec.EndToEnd, endToEndUnits},
		{"per-layer", spec.PerLayer, layerUnits},
	} {
		if len(c.spec) != len(c.units) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d defined", len(c.spec), c.kind, len(c.units))
		}
		for _, m := range c.spec {
			if unit, ok := c.units[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): defined with unit %q", c.kind, m.Name, m.Unit, unit)
			}
		}
	}
}
