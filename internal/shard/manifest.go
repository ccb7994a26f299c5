package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	mstsearch "mstsearch"
)

// ErrManifestMismatch reports a durable cluster directory whose manifest
// disagrees with the parameters Open was called with: reopening a cluster
// under a different kind, shard count, or placement would scatter new
// writes inconsistently with the data already on disk.
var ErrManifestMismatch = errors.New("shard: cluster manifest mismatch")

// manifestName is the cluster manifest file inside the cluster root.
const manifestName = "cluster.json"

// manifest pins the partitioning of a durable cluster directory.
type manifest struct {
	Version   int    `json:"version"`
	Kind      int    `json:"kind"`
	KindName  string `json:"kind_name"` // informational; Kind decides
	Shards    int    `json:"shards"`
	Placement string `json:"placement"`
	// Replicas is the replica count per shard; 0 (a pre-replication
	// manifest) reads as 1.
	Replicas int `json:"replicas,omitempty"`
}

const manifestVersion = 1

// checkManifest loads dir's manifest and verifies it against the requested
// parameters, writing a fresh manifest (atomically: temp file, fsync,
// rename, directory fsync) when none exists yet.
func checkManifest(dir string, kind mstsearch.IndexKind, n int, placement string, replicas int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		m := manifest{
			Version:   manifestVersion,
			Kind:      int(kind),
			KindName:  kind.String(),
			Shards:    n,
			Placement: placement,
		}
		if replicas > 1 {
			m.Replicas = replicas
		}
		buf, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		return mstsearch.WriteFileAtomic(path, append(buf, '\n'))
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%w: unreadable %s: %v", ErrManifestMismatch, manifestName, err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("%w: manifest version %d, supported %d", ErrManifestMismatch, m.Version, manifestVersion)
	}
	if m.Replicas < 1 {
		m.Replicas = 1
	}
	if m.Kind != int(kind) || m.Shards != n || m.Placement != placement || m.Replicas != replicas {
		return fmt.Errorf("%w: directory holds kind=%s shards=%d placement=%s replicas=%d, requested kind=%s shards=%d placement=%s replicas=%d",
			ErrManifestMismatch, mstsearch.IndexKind(m.Kind), m.Shards, m.Placement, m.Replicas, kind, n, placement, replicas)
	}
	return nil
}

// ReadManifest reports the partitioning a durable cluster directory was
// created with — the `mststore info` surface. replicas is always
// >= 1 (pre-replication manifests read as 1).
func ReadManifest(dir string) (kind mstsearch.IndexKind, n int, placement string, replicas int, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, 0, "", 0, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, 0, "", 0, fmt.Errorf("%w: unreadable %s: %v", ErrManifestMismatch, manifestName, err)
	}
	if m.Replicas < 1 {
		m.Replicas = 1
	}
	return mstsearch.IndexKind(m.Kind), m.Shards, m.Placement, m.Replicas, nil
}

// StoreDirs lists the leaf store directories of a durable cluster rooted
// at dir — each one an independent OpenDurable directory with its own
// snapshot and WAL — in (shard, replica) order. This is the walk surface
// for offline tools (`mststore verify`) that must scrub every replica,
// not just the one a live cluster would prefer.
func StoreDirs(dir string) ([]string, error) {
	_, n, _, replicas, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n*replicas)
	for i := 0; i < n; i++ {
		if replicas == 1 {
			out = append(out, filepath.Join(dir, shardDirName(i)))
			continue
		}
		for r := 0; r < replicas; r++ {
			out = append(out, filepath.Join(dir, shardDirName(i), replicaDirName(r)))
		}
	}
	return out, nil
}

// Store is what OpenDir returns: a durable *mstsearch.DB or a durable
// *Cluster. Its method set is the serving layer's engine surface plus the
// lifecycle calls the commands drive directly.
type Store interface {
	Query(ctx context.Context, req mstsearch.Request) (mstsearch.Response, error)
	KMostSimilarBatch(ctx context.Context, queries []mstsearch.BatchQuery, opts mstsearch.Options) []mstsearch.BatchResult
	Range(ctx context.Context, w mstsearch.Window, iv mstsearch.Interval) ([]mstsearch.SegmentHit, error)
	Nearest(ctx context.Context, x, y, t float64, k int) ([]mstsearch.Neighbor, error)
	Topology(ctx context.Context, w mstsearch.Window, iv mstsearch.Interval) ([]mstsearch.TopologyResult, error)
	Explain(ctx context.Context, req mstsearch.Request) (*mstsearch.ExplainReport, error)
	Add(tr mstsearch.Trajectory) error
	AppendSample(id mstsearch.ID, s mstsearch.Sample) error
	Get(id mstsearch.ID) *mstsearch.Trajectory
	Kind() mstsearch.IndexKind
	Len() int
	NumSegments() int
	CheckpointContext(ctx context.Context) error
	EnableWarmBuffer()
	Close() error
}

var (
	_ Store = (*mstsearch.DB)(nil)
	_ Store = (*Cluster)(nil)
)

// OpenDir opens the durable store in dir, creating it when absent. A
// directory holding a cluster manifest opens as that cluster, with the
// manifest's kind, shard count, placement and replica count winning over
// the arguments, so a reopen never needs the init-time parameters
// repeated. Otherwise n > 0 creates a cluster of n shards under place,
// and n == 0 opens dir as one durable DB (opts.Durable) — under the kind
// its snapshot was written with when that is not kind.
func OpenDir(dir string, kind mstsearch.IndexKind, n int, place Placement, opts Options) (Store, error) {
	mkind, mn, mplace, reps, err := ReadManifest(dir)
	switch {
	case err == nil:
		if place, err = PlacementByName(mplace); err != nil {
			return nil, err
		}
		opts.Replicas = reps
		kind, n = mkind, mn
	case !errors.Is(err, os.ErrNotExist):
		return nil, err
	}
	if n > 0 {
		c, err := Open(dir, kind, n, place, opts)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	db, err := mstsearch.OpenDurable(dir, kind, opts.Durable)
	for _, k := range mstsearch.IndexKinds() {
		if !errors.Is(err, mstsearch.ErrSnapshotKind) {
			break
		}
		if k != kind {
			db, err = mstsearch.OpenDurable(dir, k, opts.Durable)
		}
	}
	if err != nil {
		return nil, err
	}
	return db, nil
}
