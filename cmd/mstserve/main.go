// Command mstserve serves a trajectory store over HTTP: the canonical
// query surface (k-MST, range, nearest, topology, batch, explain), the
// durable write path (ingest, append, checkpoint), and operational
// endpoints (/healthz, /metrics) — behind the serving layer's admission
// control, per-request deadlines, and per-tenant budgets.
//
// Usage:
//
//	mstserve -dir store/ -addr :8080
//	mstserve -synthetic 200 -addr :8080          # in-memory demo fleet
//	mstserve -dir cluster/ -addr :8080           # sharded store (mststore cluster-init)
//
// A directory holding a cluster manifest, or any directory or synthetic
// fleet with -shards > 0, is served as a horizontally sharded cluster:
// queries scatter-gather across the shards behind the same admission
// ladder, and /v1/query answers are identical to a single-node store
// holding the same data.
//
// -max-concurrent, -queue, -queue-wait, -tenant-rps, -deadline,
// -max-nodes and -max-ioreads tune the overload posture (see -help).
//
// A SIGINT/SIGTERM drains in-flight requests and closes the store.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/server"
	"mstsearch/internal/shard"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dir        = flag.String("dir", "", "durable store directory (mststore format)")
		tree       = flag.String("tree", "rtree", "index structure for a new store: rtree, tb, str, or ntree")
		synthetic  = flag.Int("synthetic", 0, "serve an in-memory GSTD fleet of N objects instead of a store")
		seed       = flag.Int64("seed", 1, "synthetic fleet seed")
		maxConc    = flag.Int("max-concurrent", 0, "global in-flight cap (0 = 2×GOMAXPROCS)")
		queue      = flag.Int("queue", -1, "wait queue depth (-1 = same as max-concurrent)")
		queueWait  = flag.Duration("queue-wait", 500*time.Millisecond, "max queue wait before shedding")
		tenantRPS  = flag.Float64("tenant-rps", 0, "per-tenant request rate (0 = rate limiting off)")
		deadline   = flag.Duration("deadline", 2*time.Second, "default per-request deadline")
		maxDL      = flag.Duration("max-deadline", 30*time.Second, "ceiling for client-requested deadlines")
		maxNodes   = flag.Int("max-nodes", 0, "per-query node-access budget (0 = unlimited)")
		maxIOReads = flag.Uint64("max-ioreads", 0, "per-query physical-read budget (0 = unlimited)")
		coalesce   = flag.Duration("coalesce", time.Millisecond, "query coalescing window (0 = off)")
		shards     = flag.Int("shards", 0, "serve as a cluster of N shards (0 = single store)")
		placement  = flag.String("placement", "hash", "cluster placement policy: hash or spatial")
		replicas   = flag.Int("replicas", 1, "replicas per shard (cluster mode; manifest wins on reopen)")
		writeConc  = flag.String("write-concern", "all", "replicated write acknowledgement: all, quorum, or one")
		hedgeAfter = flag.Duration("hedge-after", 0, "hedge slow replica reads after this delay (0 = off)")
		repairIvl  = flag.Duration("repair-interval", 30*time.Second, "anti-entropy repair loop period (0 = off)")
	)
	flag.Parse()

	concern, err := shard.ParseWriteConcern(*writeConc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
		os.Exit(2)
	}
	ropts := shard.Options{Replicas: *replicas, WriteConcern: concern, HedgeAfter: *hedgeAfter, RepairInterval: *repairIvl}
	db, err := openStore(*dir, *tree, *synthetic, *seed, *shards, *placement, ropts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
		os.Exit(1)
	}
	db.EnableWarmBuffer()

	cfg := server.DefaultConfig()
	cfg.DefaultDeadline = *deadline
	cfg.MaxDeadline = *maxDL
	cfg.QueueWait = *queueWait
	cfg.TenantRPS = *tenantRPS
	cfg.CoalesceWindow = *coalesce
	cfg.Budgets = server.Budget{MaxNodeAccesses: *maxNodes, MaxIOReads: *maxIOReads}
	if *maxConc > 0 {
		cfg.MaxConcurrent = *maxConc
	}
	if *queue >= 0 {
		cfg.QueueDepth = *queue
	} else {
		cfg.QueueDepth = cfg.MaxConcurrent
	}

	srv := server.NewEngine(db, cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// Drain on SIGINT/SIGTERM: stop accepting, cancel in-flight work
	// through the server's base context, then close the store.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "mstserve: draining")
		_ = httpSrv.Close()
		srv.Close()
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mstserve: close store:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "mstserve: %d trajectories / %d segments on %s\n",
		db.Len(), db.NumSegments(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
		os.Exit(1)
	}
	<-done
}

// openStore builds an in-memory synthetic fleet when -synthetic is set —
// as a cluster when -shards > 0 — and otherwise opens the directory:
// a store, or a cluster when it holds a manifest or -shards > 0.
func openStore(dir, tree string, synthetic int, seed int64, shards int, placement string, ropts shard.Options) (shard.Store, error) {
	kind, err := mstsearch.ParseIndexKind(tree)
	if err != nil {
		return nil, err
	}
	place, err := shard.PlacementByName(placement)
	if err != nil {
		return nil, err
	}
	if synthetic == 0 {
		if dir == "" {
			return nil, fmt.Errorf("need -dir or -synthetic")
		}
		return shard.OpenDir(dir, kind, shards, place, ropts)
	}
	data := gstd.Generate(gstd.Config{NumObjects: synthetic, SamplesPerObject: 64, Seed: seed})
	if shards == 0 {
		return mstsearch.NewDB(kind, data.Trajs)
	}
	c, err := shard.New(kind, shards, place, ropts)
	if err != nil {
		return nil, err
	}
	for i := range data.Trajs {
		if err := c.Add(data.Trajs[i]); err != nil {
			return nil, err
		}
	}
	return c, nil
}
