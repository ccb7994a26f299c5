// Command perfbench is the repository's benchmark: it serves a
// trajectory store in-process through the HTTP server with mstserve's
// defaults, drives one workload against it, checks the answers, and
// prints one JSON result line with the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run). See workloads.go
// for the workloads and what each measures.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload dissim-read --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload metric-ntree --seed 1 --seconds 10 --repeat 10
//
// --repeat N runs the workload N times with seeds seed..seed+N-1, each in
// its own process, and prints every metric's median, quartiles and
// spread (inter-quartile distance over the median) across the runs.
//
// The benchmark's own tests run tiny versions of every workload:
//
//	cd perfbench && go test ./...
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: dissim-read, cluster-mixed or metric-ntree")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		scratch = flag.String("scratch", ".bench_build/runs", "directory for the run's store files")
		repeat  = flag.Int("repeat", 0, "run N times with successive seeds and report the spread")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *repeat > 0 {
		if err := steadiness(w, *seed, *seconds, *trace, *scratch, *repeat); err != nil {
			fail(err)
		}
		return
	}

	dir := filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	res, prov, err := run(context.Background(), w, *seed, *seconds, *trace == 1, dir)
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		fail(err)
	}
	if err := enc.Encode(res); err != nil {
		fail(err)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", prov["gate_error"])
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// newRand is a deterministic random source: every input a run makes
// derives from its seed.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// steadiness runs the workload n times, one process per seed, and
// reports each metric's median, quartiles and spread across the runs —
// the figures the bounds in BENCHMARK.json are set from.
func steadiness(w workload, seed int64, seconds float64, trace int, scratch string, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self,
			"--workload", w.Name, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace), "--scratch", scratch)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed+int64(i), err)
		}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				last = line
			}
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("run with seed %d: bad result line: %w", seed+int64(i), err)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed+int64(i), last)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %-6s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		xs := values[name]
		q1, q3 := quartiles(xs)
		fmt.Printf("%-32s %-6s %12.5g %12.5g %12.5g %8.4f\n", name, units[name], median(xs), q1, q3, spread(xs))
	}
	return nil
}
