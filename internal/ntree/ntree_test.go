package ntree

import (
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// makeFleet builds n seeded random-walk trajectories in the unit
// workspace over [0, 1], returning them plus a Lookup over the slice.
func makeFleet(n, samples int, seed int64) ([]trajectory.Trajectory, Lookup) {
	rng := rand.New(rand.NewSource(seed))
	trajs := make([]trajectory.Trajectory, n)
	for i := range trajs {
		tr := trajectory.Trajectory{ID: trajectory.ID(i + 1), Samples: make([]trajectory.Sample, samples)}
		x, y := rng.Float64(), rng.Float64()
		for j := 0; j < samples; j++ {
			tr.Samples[j] = trajectory.Sample{X: x, Y: y, T: float64(j) / float64(samples-1)}
			x += rng.NormFloat64() * 0.02
			y += rng.NormFloat64() * 0.02
		}
		trajs[i] = tr
	}
	byID := make(map[trajectory.ID]*trajectory.Trajectory, n)
	for i := range trajs {
		byID[trajs[i].ID] = &trajs[i]
	}
	return trajs, func(id trajectory.ID) *trajectory.Trajectory { return byID[id] }
}

// TestBuildInvariants grows trees through every split regime — single
// root leaf, one split, multi-level — and checks the full structural
// invariant set (stored pivot distances exact, covering radii cover,
// MBB/sample aggregates contain) after each growth stage.
func TestBuildInvariants(t *testing.T) {
	for _, n := range []int{1, 5, 40, 150, 400} {
		trajs, lookup := makeFleet(n, 17, int64(n))
		tr := New(storage.NewFile(512), lookup)
		for i := range trajs {
			if err := tr.InsertTrajectory(&trajs[i]); err != nil {
				t.Fatalf("n=%d: insert %d: %v", n, trajs[i].ID, err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 150 && tr.Height() < 2 {
			t.Fatalf("n=%d on 512 B pages stayed flat (height %d); splits untested", n, tr.Height())
		}
	}
}

// TestOpenWritable: a reopened tree serves the same reads over the same
// pages and accepts both mutations, keeping every invariant.
func TestOpenWritable(t *testing.T) {
	trajs, lookup := makeFleet(60, 9, 3)
	file := storage.NewFile(512)
	tr := New(file, lookup)
	for i := range trajs[:59] {
		if err := tr.InsertTrajectory(&trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	re := Open(file, tr.Meta(), lookup)
	if re.Meta() != tr.Meta() || re.RootMBB() != tr.RootMBB() {
		t.Fatalf("reopen drifted: %+v %v vs %+v %v", re.Meta(), re.RootMBB(), tr.Meta(), tr.RootMBB())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("reopened tree fails invariants: %v", err)
	}
	if err := re.InsertTrajectory(&trajs[59]); err != nil {
		t.Fatalf("insert on reopened tree: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		x := &trajs[rng.Intn(len(trajs))]
		appendTail(x, rng)
		if err := re.AppendRepair(x); err != nil {
			t.Fatalf("append %d to %d on reopened tree: %v", i, x.ID, err)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("append %d to %d: %v", i, x.ID, err)
		}
	}
}

// appendTail extends tr by one random-walk sample a little after its end.
func appendTail(tr *trajectory.Trajectory, rng *rand.Rand) {
	last := tr.Samples[len(tr.Samples)-1]
	tr.Samples = append(tr.Samples, trajectory.Sample{
		X: last.X + rng.NormFloat64()*0.05,
		Y: last.Y + rng.NormFloat64()*0.05,
		T: last.T + 0.01 + rng.Float64()*0.1,
	})
}

// makeStaggeredFleet is makeFleet with each trajectory's span starting
// at a random time in [0, 1] and lasting 0.5, so some spans are disjoint
// (base distance +Inf) until appends make them overlap.
func makeStaggeredFleet(n, samples int, seed int64) ([]trajectory.Trajectory, Lookup) {
	trajs, lookup := makeFleet(n, samples, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := range trajs {
		start := rng.Float64()
		for j := range trajs[i].Samples {
			trajs[i].Samples[j].T = start + 0.5*trajs[i].Samples[j].T
		}
	}
	return trajs, lookup
}

// pivots returns the IDs of the trajectories that pivot a leaf and those
// that pivot a routing entry above leaf level.
func pivots(t *testing.T, tr *Tree) (leaf, internal []trajectory.ID) {
	t.Helper()
	var walk func(page storage.PageID)
	walk = func(page storage.PageID) {
		n, err := tr.ReadMetricNode(page)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			leaf = append(leaf, n.PivotID)
			return
		}
		for _, c := range n.Children {
			if sub, err := tr.ReadMetricNode(c.Page); err != nil {
				t.Fatal(err)
			} else if !sub.Leaf {
				internal = append(internal, c.PivotID)
			}
			walk(c.Page)
		}
	}
	walk(tr.Root())
	return leaf, internal
}

// TestAppendRepair appends to leaf pivots, to pivots of internal routing
// entries and to ordinary members of a three-level tree over staggered
// spans, checking every invariant after each append.
func TestAppendRepair(t *testing.T) {
	trajs, lookup := makeStaggeredFleet(400, 9, 11)
	tr := New(storage.NewFile(512), lookup)
	for i := range trajs {
		if err := tr.InsertTrajectory(&trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("tree of height %d has no internal routing pivots", tr.Height())
	}
	leafPiv, internalPiv := pivots(t, tr)
	if len(internalPiv) == 0 {
		t.Fatal("no internal routing pivots")
	}
	// Internal pivots go first and again last, so their second repair
	// sees members whose spans the appends in between moved.
	ids := append([]trajectory.ID{}, internalPiv...)
	ids = append(ids, leafPiv[:min(10, len(leafPiv))]...)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		ids = append(ids, trajectory.ID(1+rng.Intn(len(trajs))))
	}
	ids = append(ids, internalPiv...)
	for i, id := range ids {
		x := lookup(id)
		appendTail(x, rng)
		if err := tr.AppendRepair(x); err != nil {
			t.Fatalf("append %d to %d: %v", i, id, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("append %d to %d: %v", i, id, err)
		}
	}
	stranger := trajectory.Trajectory{ID: 9999, Samples: []trajectory.Sample{{T: 0}, {T: 1}, {T: 2}}}
	if err := tr.AppendRepair(&stranger); err == nil {
		t.Fatal("repair of an unindexed trajectory succeeded")
	}
}

// FuzzAppendRepair drives a fuzzed append sequence over a seeded
// staggered fleet: each byte pair picks a trajectory and a time step, and
// every invariant must hold after each append.
func FuzzAppendRepair(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 200, 2, 3, 1, 90, 77, 12, 140, 255, 3, 3})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 42, 0, 42, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		trajs, lookup := makeStaggeredFleet(150, 7, 4)
		tr := New(storage.NewFile(512), lookup)
		for i := range trajs {
			if err := tr.InsertTrajectory(&trajs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			x := &trajs[int(ops[i])%len(trajs)]
			last := x.Samples[len(x.Samples)-1]
			x.Samples = append(x.Samples, trajectory.Sample{
				X: last.X + float64(ops[i+1]%16)/256 - 0.03,
				Y: last.Y + float64(ops[i+1]/16)/256 - 0.03,
				T: last.T + float64(ops[i+1]+1)/512,
			})
			if err := tr.AppendRepair(x); err != nil {
				t.Fatalf("append %d to %d: %v", i/2, x.ID, err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("append %d to %d: %v", i/2, x.ID, err)
			}
		}
	})
}

// TestBaseDist pins the base distance's contract: exact zero on self,
// symmetric, and +Inf exactly when the time spans are disjoint.
func TestBaseDist(t *testing.T) {
	trajs, _ := makeFleet(6, 11, 5)
	for i := range trajs {
		if d := BaseDist(&trajs[i], &trajs[i]); d > 1e-12 {
			t.Fatalf("self distance %g, want ~0", d)
		}
		for j := range trajs {
			a, b := BaseDist(&trajs[i], &trajs[j]), BaseDist(&trajs[j], &trajs[i])
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("asymmetric base distance: %v vs %v", a, b)
			}
		}
	}
	late := trajectory.Trajectory{ID: 99, Samples: []trajectory.Sample{{X: 0, Y: 0, T: 5}, {X: 1, Y: 1, T: 6}}}
	if d := BaseDist(&trajs[0], &late); !math.IsInf(d, 1) {
		t.Fatalf("disjoint spans: %v, want +Inf", d)
	}
}
