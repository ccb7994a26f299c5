package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mstsearch"
	"mstsearch/internal/experiments"
)

// writeFleet writes a small GSTD fleet as CSV and returns its path.
func writeFleet(t *testing.T) string {
	t.Helper()
	return writeCSV(t, experiments.SyntheticDataset(24, 101, 3).Trajs)
}

func writeCSV(t *testing.T, trajs []mstsearch.Trajectory) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trajs.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mstsearch.WriteTrajectoriesCSV(f, trajs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// mststore runs the command and returns its exit status, stdout and
// stderr.
func mststore(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := mststore(args...)
	if code != 0 {
		t.Fatalf("mststore %s: exit %d, stderr %q", strings.Join(args, " "), code, errOut)
	}
	return out
}

// resultLines keeps the numbered result lines of a query transcript.
func resultLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, ". trajectory ") {
			lines = append(lines, l)
		}
	}
	return lines
}

func TestStoreIngestInfoQuery(t *testing.T) {
	data := writeFleet(t)
	dir := filepath.Join(t.TempDir(), "store")

	if out := mustRun(t, "ingest", "-dir", dir, "-data", data, "-tree", "tb", "-sync", "off"); !strings.Contains(out, "ingested 24 trajectories") {
		t.Fatalf("ingest printed %q", out)
	}
	// Later subcommands resolve the kind from the directory.
	info := mustRun(t, "info", "-dir", dir)
	for _, want := range []string{"store:        " + dir, "index:        TB-tree", "trajectories: 24 (2400 segments)", "wal:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("info lacks %q:\n%s", want, info)
		}
	}
	res := resultLines(mustRun(t, "query", "-dir", dir, "-queryid", "7", "-k", "3"))
	if len(res) != 3 || !strings.Contains(res[0], "trajectory 7 ") || !strings.HasSuffix(res[0], "dissim = 0.000000") {
		t.Fatalf("query results %q: want 3, the query's own trajectory first at DISSIM 0", res)
	}
	// Two more samples per trajectory, after the fleet's [0, 1] lifespan.
	var updates []mstsearch.Trajectory
	for id := mstsearch.ID(1); id <= 24; id++ {
		updates = append(updates, mstsearch.Trajectory{ID: id, Samples: []mstsearch.Sample{{X: 0.5, Y: 0.5, T: 2}, {X: 0.6, Y: 0.5, T: 3}}})
	}
	if out := mustRun(t, "append", "-dir", dir, "-data", writeCSV(t, updates)); !strings.Contains(out, "appended 48 samples") {
		t.Fatalf("append printed %q", out)
	}
	mustRun(t, "checkpoint", "-dir", dir)
	if info := mustRun(t, "info", "-dir", dir); !strings.Contains(info, "trajectories: 24 (2448 segments)") {
		t.Fatalf("info after append lacks the appended segments:\n%s", info)
	}
}

func TestClusterInitIngestInfoQuery(t *testing.T) {
	data := writeFleet(t)
	dir := filepath.Join(t.TempDir(), "cluster")

	mustRun(t, "cluster-init", "-dir", dir, "-shards", "4", "-placement", "spatial")
	mustRun(t, "ingest", "-dir", dir, "-data", data)
	info := mustRun(t, "info", "-dir", dir)
	for _, want := range []string{"cluster:      " + dir, "placement:    spatial", "shards:       4", "replicas:     1", "trajectories: 24 (2400 segments)", "shard   3:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("info lacks %q:\n%s", want, info)
		}
	}
	out := mustRun(t, "query", "-dir", dir, "-queryid", "7", "-k", "3", "-to", "0.1")
	if !strings.Contains(out, "shards searched") || len(resultLines(out)) != 3 {
		t.Fatalf("cluster query printed %q: want a shard fan-out line and 3 results", out)
	}
	if code, _, errOut := mststore("query", "-dir", dir, "-queryid", "7", "-relaxed"); code != 1 || !strings.Contains(errOut, "single store") {
		t.Fatalf("relaxed on a cluster: exit %d, stderr %q; want exit 1 naming the limitation", code, errOut)
	}
}

// The in-memory index (-data), a durable store and a cluster over the same
// fleet give the same answers.
func TestQueryDataMatchesDir(t *testing.T) {
	data := writeFleet(t)
	store := filepath.Join(t.TempDir(), "store")
	cluster := filepath.Join(t.TempDir(), "cluster")
	mustRun(t, "ingest", "-dir", store, "-data", data)
	mustRun(t, "cluster-init", "-dir", cluster, "-shards", "4", "-placement", "spatial")
	mustRun(t, "ingest", "-dir", cluster, "-data", data)

	for _, window := range [][]string{nil, {"-from", "0", "-to", "0.1"}} {
		args := append([]string{"-queryid", "7", "-k", "5"}, window...)
		want := resultLines(mustRun(t, append([]string{"query", "-data", data}, args...)...))
		if len(want) != 5 {
			t.Fatalf("query -data %v: %d results, want 5", args, len(want))
		}
		for _, dir := range []string{store, cluster} {
			got := resultLines(mustRun(t, append([]string{"query", "-dir", dir}, args...)...))
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("query -dir %s %v:\n%s\nwant (query -data):\n%s", dir, args, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// Only ingest and cluster-init may create a directory; the read-only and
// mutating subcommands refuse a missing one without leaving anything
// behind.
func TestReadOnlyCommandsRefuseMissingDir(t *testing.T) {
	data := writeFleet(t)
	for _, args := range [][]string{
		{"info"}, {"checkpoint"}, {"query", "-queryid", "1"}, {"append", "-data", data},
	} {
		dir := filepath.Join(t.TempDir(), "typo")
		code, _, errOut := mststore(append(args, "-dir", dir)...)
		if code != 1 || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, "typo") {
			t.Errorf("%s on a missing directory: exit %d, stderr %q; want exit 1 and one line naming it", args[0], code, errOut)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s created %s", args[0], dir)
		}
	}
}

func TestSyncRejectsUnknownValue(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	code, _, errOut := mststore("ingest", "-dir", dir, "-data", writeFleet(t), "-sync", "bogus")
	if code != 2 || !strings.Contains(errOut, "always, grouped, or off") {
		t.Fatalf("-sync bogus: exit %d, stderr %q; want exit 2 naming the accepted values", code, errOut)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a rejected ingest created %s", dir)
	}
	if code, _, _ := mststore("cluster-ingest", "-dir", dir); code != 2 {
		t.Fatalf("unknown subcommand: exit %d, want 2", code)
	}
}
