// Command cpaserve runs the CPA consensus-serving daemon: a multi-tenant
// HTTP service that ingests crowd answer streams and serves always-fresh
// consensus snapshots while fitting continues in the background
// (internal/serve; DESIGN.md §6).
//
// Usage:
//
//	cpaserve -addr :8080 -data ./cpaserve-data
//
// Quick walkthrough (see README.md for a complete session):
//
//	curl -X POST localhost:8080/v1/jobs -d '{"id":"tags","items":100,"workers":20,"labels":30}'
//	curl -X POST localhost:8080/v1/jobs/tags/answers -d '{"answers":[{"i":0,"u":1,"x":[2,5]}]}'
//	curl localhost:8080/v1/jobs/tags/consensus
//
// On restart with the same -data directory every job is recovered from its
// checkpoint and journal; consensus survives crashes.
//
// With -name the daemon runs as one member of a sharded cluster
// (internal/cluster; DESIGN.md §11): the same HTTP API for the jobs it owns
// as primary, plus the replication control surface a cparouter drives —
// journal-shipping follower replicas, replica promotion, and per-job
// replication stats. A cluster member needs a -data directory.
//
//	cpaserve -name a -addr :8081 -data ./node-a
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cpa/internal/cluster"
	"cpa/internal/serve"
)

func main() {
	var (
		name      = flag.String("name", "", "cluster node name, matching the router's roster ('' = standalone daemon)")
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		data      = flag.String("data", "cpaserve-data", "data directory for journals, checkpoints and replica staging ('' = ephemeral, no recovery; standalone only)")
		queue     = flag.Int("queue", 0, "per-job ingestion queue limit (0 = default 65536)")
		saveEvery = flag.Int("save-every", 0, "checkpoint the model every N fit rounds (0 = default 16)")
		batchWait = flag.Duration("batch-wait", 0, "max wait for a mini-batch to fill before fitting a partial one (0 = default 100ms)")
		syncJrnl  = flag.Bool("sync-journal", false, "fsync the journal after every ingested batch")
		truncate  = flag.Bool("truncate-journal", false, "drop the journal prefix behind each durable checkpoint (bounded disk for long-lived jobs)")
		truncMin  = flag.Int64("truncate-min", 0, "minimum droppable prefix in bytes before a truncation fires (0 = default 64KiB)")
	)
	flag.Parse()

	cfg := serve.Config{
		Dir:             *data,
		QueueLimit:      *queue,
		SaveEvery:       *saveEvery,
		BatchWait:       *batchWait,
		SyncJournal:     *syncJrnl,
		TruncateJournal: *truncate,
		TruncateMin:     *truncMin,
	}
	who := "cpaserve"
	var (
		handler  http.Handler
		shutdown func() error
		reg      *serve.Registry
	)
	if *name != "" {
		who += " " + *name
		node, err := cluster.NewNode(*name, *data, cfg)
		if err != nil {
			log.Fatalf("%s: %v", who, err)
		}
		handler, shutdown, reg = node, node.Close, node.Registry()
	} else {
		var err error
		if reg, err = serve.Open(cfg); err != nil {
			log.Fatalf("%s: %v", who, err)
		}
		// Close drains queues, checkpoints every model and closes journals.
		handler, shutdown = serve.NewServer(reg), reg.Close
	}
	if n := len(reg.Jobs()); n > 0 {
		log.Printf("%s: recovered %d job(s) from %q", who, n, *data)
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("%s: serving on %s (data: %s)", who, *addr, dataDesc(*data))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("%s: %s, shutting down", who, sig)
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Printf("%s: serve error: %v", who, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("%s: HTTP shutdown: %v", who, err)
	}
	if err := shutdown(); err != nil {
		log.Fatalf("%s: shutting down: %v", who, err)
	}
	log.Printf("%s: clean shutdown", who)
}

func dataDesc(dir string) string {
	if dir == "" {
		return "ephemeral"
	}
	return fmt.Sprintf("%q", dir)
}
