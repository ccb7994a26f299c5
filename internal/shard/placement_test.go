package shard

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	mstsearch "mstsearch"
)

func oneSample(id mstsearch.ID, x float64) *mstsearch.Trajectory {
	return &mstsearch.Trajectory{ID: id, Samples: []mstsearch.Sample{{X: x, Y: 0.5, T: 0}}}
}

// Placements must be pure functions of (trajectory, n): Open re-derives
// ownership from recovered shards and expects it to match what Add chose.
func TestPlacementDeterministicAndInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, p := range []Placement{HashPlacement{}, SpatialPlacement{}, SpatialPlacement{MinX: -50, MaxX: 50}} {
		for i := 0; i < 200; i++ {
			tr := oneSample(mstsearch.ID(rng.Intn(1000)), rng.Float64()*200-100)
			for _, n := range []int{1, 2, 3, 7, 16} {
				s := p.Shard(tr, n)
				if s < 0 || s >= n {
					t.Fatalf("%s: shard(%d, n=%d) = %d out of range", p.Name(), tr.ID, n, s)
				}
				if again := p.Shard(tr, n); again != s {
					t.Fatalf("%s: shard(%d, n=%d) not deterministic: %d then %d", p.Name(), tr.ID, n, s, again)
				}
			}
		}
	}
}

// HashPlacement must not collapse the fleet onto a few shards: over
// sequential IDs every shard of an 8-way cluster should own a fair share.
func TestHashPlacementSpreads(t *testing.T) {
	const n, ids = 8, 4000
	counts := make([]int, n)
	for id := 1; id <= ids; id++ {
		counts[HashPlacement{}.Shard(oneSample(mstsearch.ID(id), 0), n)]++
	}
	for s, c := range counts {
		if c < ids/n/2 || c > ids/n*2 {
			t.Fatalf("shard %d owns %d of %d trajectories; want near %d", s, c, ids, ids/n)
		}
	}
}

// SpatialPlacement stripes monotonically in X and clamps out-of-range
// trajectories to the edge shards instead of rejecting them.
func TestSpatialPlacementStripesAndClamps(t *testing.T) {
	p := SpatialPlacement{MinX: 0, MaxX: 100}
	prev := 0
	for x := 0.0; x <= 100; x += 0.5 {
		s := p.Shard(oneSample(1, x), 4)
		if s < prev {
			t.Fatalf("stripe not monotone: x=%g maps to %d after %d", x, s, prev)
		}
		prev = s
	}
	if s := p.Shard(oneSample(1, -10), 4); s != 0 {
		t.Fatalf("x below range maps to shard %d, want 0", s)
	}
	if s := p.Shard(oneSample(1, 1e6), 4); s != 3 {
		t.Fatalf("x above range maps to shard %d, want 3", s)
	}
	// Degenerate range: everything lands on shard 0 rather than dividing
	// by zero.
	if s := (SpatialPlacement{MinX: 5, MaxX: 5}).Shard(oneSample(1, 7), 4); s != 0 {
		t.Fatalf("degenerate range maps to shard %d, want 0", s)
	}
}

func TestPlacementByName(t *testing.T) {
	for _, name := range []string{"hash", "spatial"} {
		p, err := PlacementByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("PlacementByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PlacementByName("round-robin"); err == nil {
		t.Fatal("unknown placement name did not error")
	}
}

func TestManifestRoundTripAndMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := checkManifest(dir, mstsearch.RTree3D, 4, "hash", 1); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := checkManifest(dir, mstsearch.RTree3D, 4, "hash", 1); err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	kind, n, placement, replicas, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if kind != mstsearch.RTree3D || n != 4 || placement != "hash" || replicas != 1 {
		t.Fatalf("manifest round-trip gave kind=%v n=%d placement=%q replicas=%d", kind, n, placement, replicas)
	}
	for _, bad := range []struct {
		kind      mstsearch.IndexKind
		n         int
		placement string
		replicas  int
	}{
		{mstsearch.TBTree, 4, "hash", 1},
		{mstsearch.RTree3D, 5, "hash", 1},
		{mstsearch.RTree3D, 4, "spatial", 1},
		{mstsearch.RTree3D, 4, "hash", 2},
	} {
		if err := checkManifest(dir, bad.kind, bad.n, bad.placement, bad.replicas); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("checkManifest(%v, %d, %q, %d) = %v, want ErrManifestMismatch", bad.kind, bad.n, bad.placement, bad.replicas, err)
		}
	}
}

// OpenDir is the one directory opener: a manifest makes the directory a
// cluster whatever the arguments say, n > 0 creates a cluster, and a plain
// store reopens under the kind its snapshot was written with.
func TestOpenDirResolvesStoreOrCluster(t *testing.T) {
	tr := mstsearch.Trajectory{ID: 1, Samples: []mstsearch.Sample{{X: 0.1, Y: 0.1, T: 0}, {X: 0.2, Y: 0.2, T: 1}}}

	dir := t.TempDir()
	s, err := OpenDir(dir, mstsearch.TBTree, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*mstsearch.DB); !ok {
		t.Fatalf("fresh directory opened as %T, want *mstsearch.DB", s)
	}
	if err := s.Add(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenDir(dir, mstsearch.RTree3D, 0, nil, Options{}); err != nil {
		t.Fatalf("reopen under another kind: %v", err)
	}
	if s.Kind() != mstsearch.TBTree || s.Len() != 1 {
		t.Fatalf("reopened store: kind %v, %d trajectories; want TB-tree, 1", s.Kind(), s.Len())
	}
	s.Close()

	cdir := t.TempDir()
	if s, err = OpenDir(cdir, mstsearch.RTree3D, 3, SpatialPlacement{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(tr); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s, err = OpenDir(cdir, mstsearch.TBTree, 0, HashPlacement{}, Options{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, ok := s.(*Cluster)
	if !ok {
		t.Fatalf("cluster directory opened as %T, want *Cluster", s)
	}
	if c.Kind() != mstsearch.RTree3D || c.NumShards() != 3 || c.Placement().Name() != "spatial" || c.Len() != 1 {
		t.Fatalf("reopened cluster: kind %v, %d shards, %s placement, %d trajectories; want the manifest's",
			c.Kind(), c.NumShards(), c.Placement().Name(), c.Len())
	}
}

// Options.Workers resolution: explicit width wins, zero falls back to
// GOMAXPROCS, and the pool is never wider than the shard count.
func TestWorkerResolution(t *testing.T) {
	c, err := New(mstsearch.RTree3D, 3, HashPlacement{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.workers(); got != 2 {
		t.Fatalf("explicit width: workers() = %d, want 2", got)
	}
	c, err = New(mstsearch.RTree3D, 3, HashPlacement{}, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.workers(); got != 3 {
		t.Fatalf("width capped by shard count: workers() = %d, want 3", got)
	}
	c, err = New(mstsearch.RTree3D, 3, HashPlacement{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.workers(); got < 1 || got > 3 {
		t.Fatalf("default width: workers() = %d, want within [1, 3]", got)
	}
}
