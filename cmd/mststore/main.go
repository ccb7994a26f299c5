// Command mststore manages trajectory stores and answers ad-hoc k-MST
// queries. A store is a directory holding a checkpoint snapshot plus a
// write-ahead log (mstsearch.OpenDurable), or a cluster of such shard
// directories under one root, pinned by the manifest cluster-init writes.
// Every subcommand detects a cluster by that manifest.
//
// Usage:
//
//	mststore ingest       -dir store/ -data trucks.csv [-tree rtree] [-sync always]
//	mststore append       -dir store/ -data updates.csv
//	mststore checkpoint   -dir store/
//	mststore info         -dir store/
//	mststore query        -dir store/ -queryid 7 -k 5 [-from 0 -to 0.1]
//	mststore query        -data trucks.csv -queryid 7 -p 0.01 -k 5 -tree tb
//	mststore verify       -dir store/
//	mststore cluster-init -dir cluster/ -shards 4 [-replicas 2] [-placement hash] [-tree rtree]
//
// query searches over the query trajectory's lifespan unless -from/-to
// say otherwise; -data indexes a CSV in memory instead of opening -dir.
// verify is the offline scrubber. Only ingest and cluster-init create a
// directory; the other subcommands refuse one that does not exist. Bad
// flags exit 2, failures exit 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mstsearch"
	"mstsearch/internal/shard"
	"mstsearch/internal/wal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A command declares its flags beyond the shared ones and returns the
// action to run once they are parsed.
type command func(f *storeFlags) (action func() error)

var commands = map[string]command{
	"ingest":       cmdIngest,
	"append":       cmdAppend,
	"checkpoint":   cmdCheckpoint,
	"info":         cmdInfo,
	"query":        cmdQuery,
	"verify":       cmdVerify,
	"cluster-init": cmdClusterInit,
}

// run executes one subcommand and returns the process exit status: 2
// for bad flags, 1 for a failure.
func run(args []string, stdout, stderr io.Writer) int {
	var cmd command
	if len(args) > 0 {
		cmd = commands[args[0]]
	}
	if cmd == nil {
		fmt.Fprintln(stderr, "usage: mststore <ingest|append|checkpoint|info|query|verify|cluster-init> -dir <store> [flags]")
		return 2
	}
	f := &storeFlags{
		FlagSet: flag.NewFlagSet("mststore "+args[0], flag.ContinueOnError),
		kind:    mstsearch.RTree3D,
		mode:    mstsearch.SyncAlways,
		out:     stdout,
	}
	f.SetOutput(stderr)
	f.StringVar(&f.dir, "dir", "", "store or cluster directory")
	f.Func("tree", "index structure: rtree (default), tb, str, or ntree", func(s string) (err error) {
		f.kind, err = mstsearch.ParseIndexKind(s)
		return err
	})
	f.Func("sync", "fsync policy: always (default), grouped, or off", func(s string) error {
		mode, ok := map[string]mstsearch.SyncMode{"always": mstsearch.SyncAlways, "grouped": mstsearch.SyncGrouped, "off": mstsearch.SyncOff}[s]
		if !ok {
			return errors.New("want always, grouped, or off")
		}
		f.mode = mode
		return nil
	})
	action := cmd(f)
	if err := f.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := action(); err != nil {
		fmt.Fprintln(stderr, "mststore:", err)
		return 1
	}
	return 0
}

// storeFlags is a subcommand's flag set with the values of the flags
// every subcommand shares, and where the command prints.
type storeFlags struct {
	*flag.FlagSet
	dir  string
	kind mstsearch.IndexKind
	mode mstsearch.SyncMode
	out  io.Writer
}

// withStore opens -dir as a store or cluster, runs fn on it and closes
// it. Unless create is set, a directory that does not exist is refused
// rather than created.
func (f *storeFlags) withStore(create bool, fn func(shard.Store) error) error {
	if f.dir == "" {
		return errors.New("-dir is required")
	}
	if _, err := os.Stat(f.dir); !create && err != nil {
		return fmt.Errorf("%s: no store or cluster directory (run ingest or cluster-init first)", f.dir)
	}
	s, err := shard.OpenDir(f.dir, f.kind, 0, nil, shard.Options{Durable: mstsearch.DurableOptions{Sync: f.mode}})
	if err != nil {
		return err
	}
	err = fn(s)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

func cmdIngest(f *storeFlags) func() error {
	data := f.String("data", "", "dataset CSV to ingest (required)")
	return func() error {
		trajs, err := readCSV(*data)
		if err != nil {
			return err
		}
		return f.withStore(true, func(s shard.Store) error {
			for i := range trajs {
				if err := s.Add(trajs[i]); err != nil {
					return fmt.Errorf("trajectory %d: %w", trajs[i].ID, err)
				}
			}
			fmt.Fprintf(f.out, "ingested %d trajectories into %s (%s, durable)\n", len(trajs), f.dir, s.Kind())
			return nil
		})
	}
}

// cmdAppend streams location updates into existing trajectories: each
// CSV trajectory's samples are appended to the stored trajectory with
// the same ID.
func cmdAppend(f *storeFlags) func() error {
	data := f.String("data", "", "updates CSV (required)")
	return func() error {
		updates, err := readCSV(*data)
		if err != nil {
			return err
		}
		return f.withStore(false, func(s shard.Store) error {
			n := 0
			for i := range updates {
				for _, smp := range updates[i].Samples {
					if err := s.AppendSample(updates[i].ID, smp); err != nil {
						return fmt.Errorf("trajectory %d: %w", updates[i].ID, err)
					}
					n++
				}
			}
			fmt.Fprintf(f.out, "appended %d samples across %d trajectories\n", n, len(updates))
			return nil
		})
	}
}

func cmdCheckpoint(f *storeFlags) func() error {
	return func() error {
		return f.withStore(false, func(s shard.Store) error {
			if err := s.CheckpointContext(context.Background()); err != nil {
				return err
			}
			fmt.Fprintf(f.out, "checkpointed %s\n", f.dir)
			return nil
		})
	}
}

// cmdInfo prints a store's index and WAL footprint, or a cluster's
// manifest plus each shard's share of the data and — on a replicated
// cluster — every replica's health.
func cmdInfo(f *storeFlags) func() error {
	return func() error {
		return f.withStore(false, func(s shard.Store) error {
			c, ok := s.(*shard.Cluster)
			if !ok {
				segs, err := wal.Segments(f.dir)
				if err != nil {
					return err
				}
				var logBytes int64
				for _, seg := range segs {
					if st, err := os.Stat(filepath.Join(f.dir, seg.Name)); err == nil {
						logBytes += st.Size()
					}
				}
				fmt.Fprintf(f.out, "store:        %s\nindex:        %s (%.2f MB)\ntrajectories: %d (%d segments)\nwal:          %d segment file(s), %d bytes\n",
					f.dir, s.Kind(), s.(*mstsearch.DB).IndexSizeMB(), s.Len(), s.NumSegments(), len(segs), logBytes)
				return nil
			}
			fmt.Fprintf(f.out, "cluster:      %s\nindex:        %s\nplacement:    %s\nshards:       %d\nreplicas:     %d\ntrajectories: %d (%d segments)\n",
				f.dir, c.Kind(), c.Placement().Name(), c.NumShards(), c.NumReplicas(), c.Len(), c.NumSegments())
			for i := 0; i < c.NumShards(); i++ {
				db := c.Shard(i)
				fmt.Fprintf(f.out, "  shard %3d:  %d trajectories, %d segments\n", i, db.Len(), db.NumSegments())
			}
			if c.NumReplicas() > 1 {
				for _, st := range c.ReplicaStatuses() {
					line := fmt.Sprintf("  shard %3d replica %d: %-11s %d trajectories", st.Shard, st.Replica, st.State, st.Trajectories)
					if st.LastError != "" {
						line += " (last error: " + st.LastError + ")"
					}
					fmt.Fprintln(f.out, line)
				}
			}
			return nil
		})
	}
}

// cmdQuery answers one query against a store, a cluster, or (-data) an
// in-memory index built from a CSV.
func cmdQuery(f *storeFlags) func() error {
	var (
		data      = f.String("data", "", "dataset CSV to index in memory instead of opening -dir")
		queryFile = f.String("queryfile", "", "query trajectory CSV (first trajectory is used)")
		queryID   = f.Uint("queryid", 0, "use this stored trajectory as the query")
		p         = f.Float64("p", 0, "TD-TR compression ratio applied to the query (0 = none)")
		k         = f.Int("k", 1, "number of results")
		m         mstsearch.Metric
		eps       = f.Float64("eps", 0, "match threshold for the lcss and edr metrics")
		from      = f.Float64("from", 0, "query period start (default: query lifespan)")
		to        = f.Float64("to", 0, "query period end")
		relaxed   = f.Bool("relaxed", false, "time-relaxed search: best DISSIM over any time shift")
		explain   = f.Bool("explain", false, "run the k-MST query with EXPLAIN: cost-model prediction vs. actual work")
		nn        []float64
		rangeQ    []float64
		topo      []float64
	)
	f.Func("metric", "similarity metric: dissim (default), dtw, lcss, or edr (non-dissim needs -tree ntree)", func(s string) (err error) {
		m, err = mstsearch.ParseMetric(s)
		return err
	})
	f.Func("nn", "point-NN query instead: \"x,y,t\"", floats(&nn, 3))
	f.Func("range", "range query instead: \"minX,minY,maxX,maxY,t1,t2\"", floats(&rangeQ, 6))
	f.Func("topology", "topological query instead: \"minX,minY,maxX,maxY,t1,t2\"", floats(&topo, 6))
	return func() error {
		ctx := context.Background()
		query := func(s shard.Store) error {
			// The non-similarity query modes need no query trajectory.
			switch {
			case nn != nil:
				res, err := s.Nearest(ctx, nn[0], nn[1], nn[2], *k)
				if err != nil {
					return err
				}
				fmt.Fprintf(f.out, "%d nearest objects to (%g, %g) at t=%g:\n", *k, nn[0], nn[1], nn[2])
				for i, r := range res {
					fmt.Fprintf(f.out, "%2d. trajectory %-6d distance %.4f\n", i+1, r.TrajID, r.Dist)
				}
				return nil
			case rangeQ != nil:
				w, iv := window(rangeQ)
				hits, err := s.Range(ctx, w, iv)
				if err != nil {
					return err
				}
				fmt.Fprintf(f.out, "range query: %d segments\n", len(hits))
				return nil
			case topo != nil:
				w, iv := window(topo)
				rels, err := s.Topology(ctx, w, iv)
				if err != nil {
					return err
				}
				for _, r := range rels {
					fmt.Fprintf(f.out, "trajectory %-6d %-8s inside for %.4f\n", r.TrajID, r.Relation, r.InsideDuration)
				}
				return nil
			}

			var q mstsearch.Trajectory
			switch {
			case *queryFile != "":
				qs, err := readCSV(*queryFile)
				if err != nil {
					return err
				}
				if len(qs) == 0 {
					return fmt.Errorf("query file %s holds no trajectory", *queryFile)
				}
				q = qs[0]
			case *queryID != 0:
				src := s.Get(mstsearch.ID(*queryID))
				if src == nil {
					return fmt.Errorf("trajectory %d not in the store", *queryID)
				}
				q = src.Clone()
			default:
				return errors.New("one of -queryfile or -queryid is required")
			}
			if *p > 0 {
				orig := len(q.Samples)
				q = mstsearch.CompressTDTR(&q, *p)
				fmt.Fprintf(f.out, "query compressed with TD-TR p=%.2f%%: %d -> %d samples\n", *p*100, orig, len(q.Samples))
			}
			q.ID = 0
			db, single := s.(*mstsearch.DB)
			if single {
				fmt.Fprintf(f.out, "indexed %d trajectories / %d segments in a %s (%.2f MB)\n",
					db.Len(), db.NumSegments(), db.Kind(), db.IndexSizeMB())
			}

			if *relaxed {
				if !single {
					return errors.New("-relaxed needs a single store, not a cluster")
				}
				res, err := db.Relaxed(ctx, &q, *k)
				if err != nil {
					return err
				}
				fmt.Fprintf(f.out, "time-relaxed k=%d MST: %d results\n", *k, len(res))
				for i, r := range res {
					fmt.Fprintf(f.out, "%2d. trajectory %-6d DISSIM = %.6f at time offset %+.4f\n", i+1, r.TrajID, r.Dissim, r.Offset)
				}
				return nil
			}

			t1, t2 := *from, *to
			if t1 == 0 && t2 == 0 {
				t1, t2 = q.StartTime(), q.EndTime()
			}
			req := mstsearch.Request{Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: *k,
				Metric: m, MetricEps: *eps, Options: mstsearch.DefaultOptions()}
			if *explain {
				rep, err := s.Explain(ctx, req)
				if err != nil {
					return err
				}
				fmt.Fprint(f.out, rep)
				return nil
			}
			var (
				resp   mstsearch.Response
				shards string
				err    error
			)
			if c, ok := s.(*shard.Cluster); ok {
				var qs shard.QueryStats
				resp, qs, err = c.QueryShards(ctx, req)
				shards = fmt.Sprintf(" (%d shards searched, %d pruned)", qs.Fanout, qs.Pruned)
			} else {
				resp, err = s.Query(ctx, req)
			}
			if err != nil {
				return err
			}
			st := resp.Stats
			fmt.Fprintf(f.out, "k=%d MST (%s) over [%g, %g]: %d results, pruning %.1f%%, %d/%d nodes, %d page reads%s\n",
				*k, m, t1, t2, len(resp.Results), st.PruningPower*100, st.NodesAccessed, st.TotalNodes, st.PageReads, shards)
			for i, r := range resp.Results {
				fmt.Fprintf(f.out, "%2d. trajectory %-6d %s = %.6f\n", i+1, r.TrajID, m, r.Dissim)
			}
			return nil
		}
		if *data == "" {
			return f.withStore(false, query)
		}
		trajs, err := readCSV(*data)
		if err != nil {
			return err
		}
		db, err := mstsearch.NewDB(f.kind, trajs)
		if err != nil {
			return err
		}
		return query(db)
	}
}

// cmdClusterInit creates an empty durable cluster: N shard directories
// (each with R replica subdirectories when -replicas > 1) plus the
// manifest pinning (kind, shards, placement, replicas).
func cmdClusterInit(f *storeFlags) func() error {
	shards := f.Int("shards", 2, "number of shards")
	replicas := f.Int("replicas", 1, "replicas per shard")
	placement := f.String("placement", "hash", "placement policy: hash or spatial")
	return func() error {
		if f.dir == "" {
			return errors.New("-dir is required")
		}
		place, err := shard.PlacementByName(*placement)
		if err != nil {
			return err
		}
		c, err := shard.Open(f.dir, f.kind, *shards, place, shard.Options{Replicas: *replicas, Durable: mstsearch.DurableOptions{Sync: f.mode}})
		if err != nil {
			return err
		}
		if err := c.Close(); err != nil {
			return err
		}
		fmt.Fprintf(f.out, "initialized cluster %s: %d shards x %d replica(s), %s placement, %s index\n",
			f.dir, *shards, c.NumReplicas(), *placement, f.kind)
		return nil
	}
}

// cmdVerify scrubs a store — or every shard/replica store of a cluster —
// offline, re-checking every snapshot and live WAL frame CRC the next
// recovery would trust, and prints a machine-readable JSON report. Fails
// when any store is damaged.
func cmdVerify(f *storeFlags) func() error {
	return func() error {
		if f.dir == "" {
			return errors.New("-dir is required")
		}
		dirs, err := shard.StoreDirs(f.dir)
		if err != nil {
			// No cluster manifest: treat dir as a single store.
			dirs = []string{f.dir}
		}
		out := struct {
			Stores  []*mstsearch.ScrubReport `json:"stores"`
			Damaged bool                     `json:"damaged"`
		}{}
		for _, d := range dirs {
			rep, err := mstsearch.ScrubStore(d)
			if err != nil {
				rep = &mstsearch.ScrubReport{Dir: d, Findings: []mstsearch.ScrubFinding{{File: d, Problem: err.Error()}}}
			}
			out.Damaged = out.Damaged || rep.Damaged()
			out.Stores = append(out.Stores, rep)
		}
		enc := json.NewEncoder(f.out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		if out.Damaged {
			return errors.New("damage found")
		}
		return nil
	}
}

func readCSV(path string) ([]mstsearch.Trajectory, error) {
	if path == "" {
		return nil, errors.New("-data is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mstsearch.ReadTrajectoriesCSV(f)
}

// floats parses a flag value of exactly n comma-separated numbers into
// *dst.
func floats(dst *[]float64, n int) func(string) error {
	return func(s string) error {
		parts := strings.Split(s, ",")
		if len(parts) != n {
			return fmt.Errorf("expected %d comma-separated numbers, got %q", n, s)
		}
		*dst = make([]float64, n)
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("bad number %q: %v", p, err)
			}
			(*dst)[i] = v
		}
		return nil
	}
}

// window reads "minX,minY,maxX,maxY,t1,t2" as a spatiotemporal window.
func window(v []float64) (mstsearch.Window, mstsearch.Interval) {
	return mstsearch.Window{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, mstsearch.Interval{T1: v[4], T2: v[5]}
}
