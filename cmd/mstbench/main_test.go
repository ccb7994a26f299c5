package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/server"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: mstsearch
cpu: Test CPU @ 2.00GHz
BenchmarkKMostSimilarBatch
BenchmarkKMostSimilarBatch/parallelism=1-8         	      10	   6755196 ns/op	      4739 queries/s	  12345 B/op	     678 allocs/op
BenchmarkDissim 	1000	1234.5 ns/op
PASS
ok  	mstsearch	1.234s
`

func TestParseGoBench(t *testing.T) {
	rep, err := parseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "Test CPU @ 2.00GHz" {
		t.Fatalf("environment header: %+v", rep)
	}
	// The header-only sub-benchmark line names a benchmark but carries no
	// result, so it yields no row.
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(rep.Results), rep.Results)
	}
	got := rep.Results[0]
	want := result{
		Name: "BenchmarkKMostSimilarBatch/parallelism=1", Package: "mstsearch", Procs: 8,
		Iterations: 10, NsPerOp: 6755196, BytesPerOp: 12345, AllocsPerOp: 678,
		Extra: map[string]float64{"queries/s": 4739},
	}
	if got.Name != want.Name || got.Package != want.Package || got.Procs != want.Procs ||
		got.Iterations != want.Iterations || got.NsPerOp != want.NsPerOp ||
		got.BytesPerOp != want.BytesPerOp || got.AllocsPerOp != want.AllocsPerOp ||
		len(got.Extra) != 1 || got.Extra["queries/s"] != 4739 {
		t.Fatalf("parsed %+v\nwant %+v", got, want)
	}
	if r := rep.Results[1]; r.Name != "BenchmarkDissim" || r.Procs != 0 || r.NsPerOp != 1234.5 || r.Extra != nil {
		t.Fatalf("line without a procs suffix parsed as %+v", r)
	}
	if _, err := parseGoBench(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("input without benchmark lines parsed without error")
	}
}

// The gobench experiment reads stdin and writes the report to -json.
func TestGoBenchExperiment(t *testing.T) {
	in := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(in, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdin := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = stdin }()

	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "gobench", "-json", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"goos", "goarch", "cpu", "results"} {
		if _, ok := rep[key]; !ok {
			t.Fatalf("report lacks %q: %s", key, buf)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "benchjson"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestBatchExperimentSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "batch", "-queries", "2", "-samples", "51"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Batch k-MST executor: S0050, 51 samples/object, 2 queries (5% windows, k=1)") {
		t.Fatalf("unexpected header:\n%s", stdout.String())
	}
}

// load passes against a healthy server and fails, after writing its
// report, when queries fail with anything but a 429 shed.
func TestLoadFailsOnFailedQueries(t *testing.T) {
	db, err := mstsearch.NewDB(mstsearch.RTree3D, gstd.Generate(gstd.Config{NumObjects: 20, SamplesPerObject: 16, Seed: 1}).Trajs)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewEngine(db, server.DefaultConfig())
	defer srv.Close()
	healthy := httptest.NewServer(srv)
	defer healthy.Close()

	// flaky answers every other query and rejects the rest: the run has
	// successes, and they must not hide the failures.
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || calls.Add(1)%2 == 0 {
			srv.ServeHTTP(w, r)
			return
		}
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"bad_request","message":"rejected"}}`))
	}))
	defer flaky.Close()

	for _, tc := range []struct {
		url        string
		code       int
		wantFailed bool
	}{{healthy.URL, 0, false}, {flaky.URL, 1, true}} {
		out := filepath.Join(t.TempDir(), "load.json")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "load", "-addr", tc.url, "-workers", "2", "-duration", "300ms", "-json", out}, &stdout, &stderr)
		if code != tc.code {
			t.Fatalf("load against %s: exit %d, want %d; stderr %q", tc.url, code, tc.code, stderr.String())
		}
		buf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(buf, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 1 || rep.Results[0].Iterations == 0 || (rep.Results[0].Extra["failed"] > 0) != tc.wantFailed {
			t.Fatalf("load report against %s: %s", tc.url, buf)
		}
		if tc.wantFailed && !strings.Contains(stderr.String(), "queries failed") {
			t.Fatalf("failed load did not say why: %q", stderr.String())
		}
	}
}
