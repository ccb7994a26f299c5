package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc issues the i-th operation of a phase and reports whether it
// failed. A failure is an error, a shed (429/503) or a degraded answer.
type opFunc func(ctx context.Context, i int) error

// closedResult is one closed-loop phase: each client sends its next
// request only after the previous one returned, so the rate is what the
// system sustains.
type closedResult struct {
	done    []time.Duration // completion offsets of the successful calls
	failed  int
	elapsed time.Duration
}

// rates returns the completions per second in each whole window of
// length win, or over the whole phase when it is shorter than a window.
func (c closedResult) rates(win time.Duration) []float64 {
	if c.elapsed < win {
		return []float64{float64(len(c.done)) / c.elapsed.Seconds()}
	}
	out := make([]float64, int(c.elapsed/win))
	for _, d := range c.done {
		if i := int(d / win); i < len(out) {
			out[i]++
		}
	}
	for i := range out {
		out[i] /= win.Seconds()
	}
	return out
}

// closedLoop runs clients closed-loop clients for d.
func closedLoop(ctx context.Context, d time.Duration, clients int, op func(ctx context.Context, client, i int) error) closedResult {
	var (
		mu     sync.Mutex
		done   []time.Duration
		failed atomic.Int64
	)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
				if err := op(ctx, c, i); err != nil {
					failed.Add(1)
					continue
				}
				mu.Lock()
				done = append(done, time.Since(start))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return closedResult{
		done:    done,
		failed:  int(failed.Load()),
		elapsed: time.Since(start),
	}
}

// openResult is one open-loop phase: operation i was due at
// start + i/rate whatever happened to earlier ones.
type openResult struct {
	// calls are the successful calls. Latency runs from a call's due
	// time to its reply, so a stall also charges the calls queued
	// behind it.
	calls []call
	// late is how long after its due time each call was sent: the
	// generator's own lag, reported beside the latencies.
	late      []time.Duration
	attempted int
	failed    int
	rate      float64 // calls per second offered
}

// openLoop issues n calls at rate per second on workers goroutines.
// Workers claim calls in schedule order and wait for each call's due
// time before sending it. Calls still unsent once the schedule has
// overrun by grace are not sent and count as failed, so an overloaded
// system cannot stretch a phase without bound.
func openLoop(ctx context.Context, rate float64, n, workers int, grace time.Duration, op opFunc) openResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	cutoff := start.Add(time.Duration(n)*interval + grace)
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  = openResult{attempted: n, rate: rate}
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.After(cutoff) || ctx.Err() != nil {
					mu.Lock()
					res.failed++
					mu.Unlock()
					continue
				}
				err := op(ctx, i)
				done := time.Now()
				mu.Lock()
				res.late = append(res.late, sent.Sub(due))
				if err != nil {
					res.failed++
				} else {
					res.calls = append(res.calls, call{due: due.Sub(start), latency: done.Sub(due)})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// call is one successful open-loop call.
type call struct{ due, latency time.Duration }

// windowQuantiles splits the phase into equal windows of at least
// minWindow and at least minWindowCalls scheduled calls, groups the
// calls by due time (the remainder joins the last window) and returns
// the q-quantile latency in milliseconds of each window.
func (res openResult) windowQuantiles(q float64) []float64 {
	span := time.Duration(float64(res.attempted) / res.rate * float64(time.Second))
	win := time.Duration(minWindowCalls / res.rate * float64(time.Second))
	if win < minWindow {
		win = minWindow
	}
	n := int(span / win)
	if n < 1 {
		n = 1
	}
	groups := make([][]float64, n)
	for _, c := range res.calls {
		i := int(c.due / win)
		if i >= n {
			i = n - 1
		}
		groups[i] = append(groups[i], ms(c.latency))
	}
	var out []float64
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, percentile(g, q))
		}
	}
	return out
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
