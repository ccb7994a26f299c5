package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/server"
	"mstsearch/internal/shard"
)

// store is what a workload serves: the server's Engine plus the
// lifecycle calls the benchmark makes itself. *mstsearch.DB and
// *shard.Cluster satisfy it.
type store interface {
	server.Engine
	EnableWarmBuffer()
	Close() error
}

// sampleBytes is the user payload of one sample: x, y and t as float64.
const sampleBytes = 24

// snapshotName is the file the in-memory store saves itself to, so that
// it too has bytes on disk to recover from.
const snapshotName = "store.mstdb"

// fleet generates the workload's GSTD fleet from the seed.
func (w workload) fleet(seed int64) []mstsearch.Trajectory {
	return gstd.Generate(gstd.Config{NumObjects: w.Objects, SamplesPerObject: w.Samples, Seed: seed}).Trajs
}

// durableOptions is the same on every run: grouped fsync (every 8th
// mutation), so both sides of a comparison pay the same flush policy.
func durableOptions(tr *tracer) mstsearch.DurableOptions {
	o := mstsearch.DurableOptions{Sync: mstsearch.SyncGrouped}
	if tr != nil {
		o.OpenFile = tr.openFile
	}
	return o
}

// open opens the workload's store in dir: a fresh one, or the one the
// dir's bytes recover (a durable store's checkpoint and WAL, or the
// in-memory store's snapshot).
func (w workload) open(dir string, tr *tracer) (store, error) {
	switch {
	case w.Shards > 0:
		return shard.Open(dir, w.Kind, w.Shards, shard.HashPlacement{},
			shard.Options{Replicas: w.Replicas, Durable: durableOptions(tr)})
	case w.Durable:
		return mstsearch.OpenDurable(dir, w.Kind, durableOptions(tr))
	default:
		path := filepath.Join(dir, snapshotName)
		if _, err := os.Stat(path); err == nil {
			return mstsearch.Load(path)
		}
		return mstsearch.Open(w.Kind), nil
	}
}

// build opens a fresh store in dir and ingests the fleet into it.
func (w workload) build(dir string, fleet []mstsearch.Trajectory, tr *tracer) (store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, err := w.open(dir, tr)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	for i := range fleet {
		if err := s.Add(fleet[i]); err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("ingest trajectory %d: %w", fleet[i].ID, err)
		}
	}
	return s, nil
}

// persist leaves on disk the bytes a reopen recovers from. A durable
// store already has them (checkpoint plus WAL); the in-memory store
// writes a snapshot.
func (w workload) persist(s store, dir string) error {
	if w.Durable {
		return nil
	}
	db, ok := s.(*mstsearch.DB)
	if !ok {
		return fmt.Errorf("in-memory store is a %T", s)
	}
	return db.Save(filepath.Join(dir, snapshotName))
}

// databases lists the DBs behind a store: every replica of every shard
// of a cluster, or the single DB.
func databases(s store) []*mstsearch.DB {
	switch s := s.(type) {
	case *mstsearch.DB:
		return []*mstsearch.DB{s}
	case *shard.Cluster:
		var out []*mstsearch.DB
		for i := 0; i < s.NumShards(); i++ {
			for r := 0; r < s.NumReplicas(); r++ {
				if db := s.Replica(i, r); db != nil {
					out = append(out, db)
				}
			}
		}
		return out
	}
	return nil
}

// indexPages reports the index size in pages and the warm pool's page
// capacity (10 % of the index, at most 1000 pages), summed over one
// replica of every shard.
func indexPages(s store) (index, pool int) {
	dbs := databases(s)
	if c, ok := s.(*shard.Cluster); ok {
		dbs = nil
		for i := 0; i < c.NumShards(); i++ {
			dbs = append(dbs, c.Shard(i))
		}
	}
	for _, db := range dbs {
		pages := int(db.IndexSizeMB() * (1 << 20) / 4096)
		index += pages
		p := pages / 10
		if p > 1000 {
			p = 1000
		}
		if p < 1 {
			p = 1
		}
		pool += p
	}
	return index, pool
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src into dst, keeping the layout:
// the bytes a crashed or stopped process left behind, reopened once per
// copy so every recovery starts from the same state.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
