package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mstsearch/internal/server"
)

// runLoad drives a closed-loop pool of workers issuing k-MST queries
// against the mstserve at addr for d, and writes a report (to path, or
// stdout) of latency percentiles, queries/s and the shed, degraded and
// failed counts. Shed queries (429) are the overload posture working; any
// other failed query fails the run, after the report is written.
func runLoad(addr string, workers int, d time.Duration, k int, seed int64, path string, stdout, stderr io.Writer) error {
	cl := &server.Client{BaseURL: addr, Tenant: "mstbench", MaxAttempts: 3}
	if _, err := cl.Health(context.Background()); err != nil {
		return fmt.Errorf("load: server not healthy: %w", err)
	}

	var (
		mu                     sync.Mutex
		latencies              []time.Duration
		shed, degraded, failed atomic.Int64
	)
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for ctx.Err() == nil {
				req := randomQuery(rng, k)
				t0 := time.Now()
				resp, err := cl.Query(ctx, req)
				lat := time.Since(t0)
				if err != nil {
					var apiErr *server.APIError
					switch {
					case errors.As(err, &apiErr) && apiErr.Status == 429:
						shed.Add(1)
					case ctx.Err() != nil:
						// driver shutting down, not a server failure
					default:
						failed.Add(1)
					}
					continue
				}
				if resp.Degraded {
					degraded.Add(1)
				}
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if len(latencies) == 0 {
		return fmt.Errorf("load: no successful queries (%d failed, %d shed)", failed.Load(), shed.Load())
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) float64 {
		return float64(latencies[int(q*float64(len(latencies)-1))].Microseconds()) / 1000
	}
	var total time.Duration
	for _, l := range latencies {
		total += l
	}
	res := result{
		Name:       fmt.Sprintf("LoadSmoke/workers=%d", workers),
		Package:    "mstsearch/internal/server",
		Iterations: int64(len(latencies)),
		NsPerOp:    float64(total.Nanoseconds()) / float64(len(latencies)),
		Extra: map[string]float64{
			"queries_per_s": float64(len(latencies)) / elapsed.Seconds(),
			"p50_ms":        pct(0.50),
			"p90_ms":        pct(0.90),
			"p99_ms":        pct(0.99),
			"shed":          float64(shed.Load()),
			"degraded":      float64(degraded.Load()),
			"failed":        float64(failed.Load()),
		},
	}
	fmt.Fprintf(stderr, "load: %d queries, %.0f q/s, p50 %.2fms p99 %.2fms, %d shed, %d failed\n",
		len(latencies), res.Extra["queries_per_s"], res.Extra["p50_ms"], res.Extra["p99_ms"],
		shed.Load(), failed.Load())
	rep := &report{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Results: []result{res}}
	if err := rep.write(path, stdout); err != nil {
		return err
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("load: %d queries failed", n)
	}
	return nil
}

// randomQuery synthesizes a short query trajectory inside the unit
// workspace the GSTD fleet lives in. The query interval is anchored on
// the generated sample times themselves — deriving it independently
// leaves the last sample an ulp short of T2 and trips the engine's
// coverage check.
func randomQuery(rng *rand.Rand, k int) server.QueryRequest {
	const samples = 8
	x, y := rng.Float64(), rng.Float64()
	t1 := rng.Float64() * 0.5
	dt := 0.4 / (samples - 1)
	q := server.TrajectoryJSON{ID: 0, Samples: make([][3]float64, samples)}
	for i := 0; i < samples; i++ {
		x += (rng.Float64() - 0.5) * 0.05
		y += (rng.Float64() - 0.5) * 0.05
		q.Samples[i] = [3]float64{x, y, t1 + float64(i)*dt}
	}
	return server.QueryRequest{
		Query: q,
		T1:    q.Samples[0][2], T2: q.Samples[samples-1][2],
		K: k, DeadlineMS: 2000,
	}
}
