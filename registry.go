package mstsearch

import (
	"errors"
	"fmt"
	"strings"

	"mstsearch/internal/index"
	"mstsearch/internal/ntree"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/strtree"
	"mstsearch/internal/tbtree"
)

// IndexKind selects the index structure backing a DB.
type IndexKind int

// The index structures a DB can run on. The first three are the
// R-tree-family structures of the paper's §4.5 — all answer the same
// queries: the 3D R-tree discriminates purely spatially (fastest short
// queries), the TB-tree bundles each trajectory's segments into dedicated
// leaves (smallest index, best I/O on long queries), and the STR-tree sits
// between the two. The N-tree is a metric-space index over whole
// trajectories (pivots and covering radii instead of segment MBBs): it
// answers the same k-MST queries and additionally serves exact kNN under
// the non-DISSIM metrics (DTW/LCSS/EDR), which MBB geometry cannot bound.
const (
	RTree3D IndexKind = iota
	TBTree
	STRTree
	NTree
)

// kindSpec is one registry row: the canonical display name (String) and
// the lowercase spellings ParseIndexKind accepts for it.
type kindSpec struct {
	kind    IndexKind
	name    string
	aliases []string
}

// kindRegistry is the single source of truth for kind naming. Every
// binary and the persistence layer resolve kinds through it, so adding a
// kind here is the whole registration step.
var kindRegistry = []kindSpec{
	{RTree3D, "3D R-tree", []string{"rtree", "r", "3d", "3d r-tree"}},
	{TBTree, "TB-tree", []string{"tb", "tbtree", "tb-tree"}},
	{STRTree, "STR-tree", []string{"str", "strtree", "str-tree"}},
	{NTree, "N-tree", []string{"ntree", "n", "n-tree", "metric"}},
}

// String names the structure.
func (k IndexKind) String() string {
	for _, s := range kindRegistry {
		if s.kind == k {
			return s.name
		}
	}
	return fmt.Sprintf("IndexKind(%d)", int(k))
}

// Valid reports whether k is a registered index kind.
func (k IndexKind) Valid() bool {
	for _, s := range kindRegistry {
		if s.kind == k {
			return true
		}
	}
	return false
}

// Metric reports whether the kind is a metric-space index: one that can
// serve exact kNN under every Request.Metric, not only DISSIM.
func (k IndexKind) Metric() bool { return k == NTree }

// ErrUnknownIndexKind reports an index kind name or value no registry row
// matches — the one typed error every kind-resolving surface (CLI flags,
// snapshot headers, WAL kind records) returns.
var ErrUnknownIndexKind = errors.New("mstsearch: unknown index kind")

// ParseIndexKind resolves a kind name (case-insensitively) to its
// IndexKind — the inverse of IndexKind.String, which it also accepts.
func ParseIndexKind(s string) (IndexKind, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	for _, spec := range kindRegistry {
		if t == strings.ToLower(spec.name) {
			return spec.kind, nil
		}
		for _, a := range spec.aliases {
			if t == a {
				return spec.kind, nil
			}
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownIndexKind, s)
}

// IndexKinds returns every registered kind in declaration order — the
// list CLI fallback loops and test matrices iterate.
func IndexKinds() []IndexKind {
	out := make([]IndexKind, len(kindRegistry))
	for i, s := range kindRegistry {
		out[i] = s.kind
	}
	return out
}

// treeMeta is the root metadata every engine exposes in a common shape,
// the (root, height, nodes) triple the snapshot header stores.
type treeMeta struct {
	Root   storage.PageID
	Height int
	Nodes  int
}

// indexEngine adapts one concrete index structure to the DB's mutation
// and read paths. Engines are not safe for concurrent use on their own;
// the DB serializes calls through its lock.
type indexEngine interface {
	// meta returns the root metadata for the snapshot header.
	meta() treeMeta
	// view opens a read view of the index over the given pager. Search
	// code type-switches the result to the capability it needs
	// (index.Tree for MBB search, index.MetricTree for metric search).
	view(p storage.Pager) index.Index
	// insertTrajectory indexes one whole trajectory (the Add path). The
	// trajectory is already in the DB's store when this is called.
	insertTrajectory(tr *Trajectory) error
	// appendSegment indexes one new tail segment (the AppendSample
	// path); tr already includes the new sample. Read-only loaded
	// engines return their structure's ErrReadOnly.
	appendSegment(e index.LeafEntry, tr *Trajectory) error
}

// newEngine builds a fresh, writable engine of the given kind over the
// page file. The DB's trajectory store backs metric engines' geometry
// lookups; callers must hold db.mu (write side) while mutating through
// the engine.
func (db *DB) newEngine(kind IndexKind, file storage.Pager) indexEngine {
	switch kind {
	case TBTree:
		return &tbEngine{t: tbtree.New(file)}
	case STRTree:
		return &strEngine{t: strtree.New(file)}
	case NTree:
		return &ntreeEngine{t: ntree.New(file, db.lookupLocked)}
	default:
		return &rtreeEngine{t: rtree.New(file)}
	}
}

// lookupLocked resolves a trajectory ID against the store for the metric
// engine. It runs inside engine calls, which the DB only makes under
// db.mu, so the unlocked get is safe.
func (db *DB) lookupLocked(id ID) *Trajectory { return db.get(id) }

// openEngine rebinds a snapshot's engine over its restored page file. A
// reopened 3D R-tree or N-tree stays writable; the TB-tree and STR-tree
// reopen read-only (their build-time state is not in the snapshot),
// rejecting mutations with their structure's ErrReadOnly until a Recover
// rebuilds them.
func (db *DB) openEngine(kind IndexKind, file storage.Pager, m treeMeta) indexEngine {
	switch kind {
	case TBTree:
		return &tbEngine{t: tbtree.Open(file, tbtree.Meta{Root: m.Root, Height: m.Height, Nodes: m.Nodes})}
	case STRTree:
		return &strEngine{t: strtree.Open(file, strtree.Meta{Root: m.Root, Height: m.Height, Nodes: m.Nodes})}
	case NTree:
		return &ntreeEngine{t: ntree.Open(file, ntree.Meta{Root: m.Root, Height: m.Height, Nodes: m.Nodes}, db.lookupLocked)}
	default:
		return &rtreeEngine{t: rtree.Open(file, rtree.Meta{Root: m.Root, Height: m.Height, Nodes: m.Nodes})}
	}
}

type rtreeEngine struct{ t *rtree.Tree }

func (e *rtreeEngine) meta() treeMeta {
	m := e.t.Meta()
	return treeMeta{Root: m.Root, Height: m.Height, Nodes: m.Nodes}
}

func (e *rtreeEngine) view(p storage.Pager) index.Index { return rtree.Open(p, e.t.Meta()) }

func (e *rtreeEngine) insertTrajectory(tr *Trajectory) error {
	for s := 0; s < tr.NumSegments(); s++ {
		le := index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)}
		if err := e.t.Insert(le); err != nil {
			return err
		}
	}
	return nil
}

func (e *rtreeEngine) appendSegment(le index.LeafEntry, _ *Trajectory) error {
	return e.t.Insert(le)
}

type tbEngine struct{ t *tbtree.Tree }

func (e *tbEngine) meta() treeMeta {
	m := e.t.Meta()
	return treeMeta{Root: m.Root, Height: m.Height, Nodes: m.Nodes}
}

func (e *tbEngine) view(p storage.Pager) index.Index { return tbtree.Open(p, e.t.Meta()) }

func (e *tbEngine) insertTrajectory(tr *Trajectory) error { return e.t.InsertTrajectory(tr) }

func (e *tbEngine) appendSegment(le index.LeafEntry, _ *Trajectory) error {
	return e.t.Insert(le)
}

type strEngine struct{ t *strtree.Tree }

func (e *strEngine) meta() treeMeta {
	m := e.t.Meta()
	return treeMeta{Root: m.Root, Height: m.Height, Nodes: m.Nodes}
}

func (e *strEngine) view(p storage.Pager) index.Index { return strtree.Open(p, e.t.Meta()) }

func (e *strEngine) insertTrajectory(tr *Trajectory) error { return e.t.InsertTrajectory(tr) }

func (e *strEngine) appendSegment(le index.LeafEntry, _ *Trajectory) error {
	return e.t.Insert(le)
}

type ntreeEngine struct{ t *ntree.Tree }

func (e *ntreeEngine) meta() treeMeta {
	m := e.t.Meta()
	return treeMeta{Root: m.Root, Height: m.Height, Nodes: m.Nodes}
}

func (e *ntreeEngine) view(p storage.Pager) index.Index {
	return ntree.Open(p, e.t.Meta(), e.t.Lookup())
}

func (e *ntreeEngine) insertTrajectory(tr *Trajectory) error { return e.t.InsertTrajectory(tr) }

func (e *ntreeEngine) appendSegment(_ index.LeafEntry, tr *Trajectory) error {
	return e.t.AppendRepair(tr)
}
