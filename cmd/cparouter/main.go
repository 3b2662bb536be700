// Command cparouter fronts a sharded cpaserve cluster: it places jobs on
// shards by rendezvous hashing, proxies ingestion to shard primaries with
// ownership-epoch stamps and a replication ack barrier, routes consensus
// reads to the primary or any verified-caught-up follower, and runs
// failover and planned handoff (internal/cluster; DESIGN.md §11).
//
// Usage (1 router, 2 shards × 2 replicas over 4 nodes):
//
//	cpaserve -name a -addr :8081 -data ./node-a &
//	cpaserve -name b -addr :8082 -data ./node-b &
//	cpaserve -name c -addr :8083 -data ./node-c &
//	cpaserve -name d -addr :8084 -data ./node-d &
//	cparouter -addr :8080 \
//	  -node a=http://localhost:8081 -node b=http://localhost:8082 \
//	  -node c=http://localhost:8083 -node d=http://localhost:8084 \
//	  -shard a,b -shard c,d
//
// Clients then talk to the router exactly as they would to a single
// cpaserve. GET /clusterz shows the map; POST /v1/cluster/handoff
// {"job":"tags","to":"b"} transfers ownership live.
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
	"strings"
	"syscall"
	"time"

	"cpa/internal/cluster"
)

func main() {
	spec := cluster.MapSpec{Nodes: map[string]string{}}
	addr := flag.String("addr", ":8080", "HTTP listen address")
	flag.Func("node", "cluster node as name=url (repeatable)", func(v string) error {
		name, url, ok := strings.Cut(v, "=")
		if !ok || name == "" || url == "" {
			return fmt.Errorf("want name=url, got %q", v)
		}
		spec.Nodes[name] = strings.TrimRight(url, "/")
		return nil
	})
	flag.Func("shard", "shard replica set as primary[,follower...] (repeatable)", func(v string) error {
		parts := strings.Split(v, ",")
		sh := cluster.ShardSpec{Primary: strings.TrimSpace(parts[0])}
		for _, f := range parts[1:] {
			if f = strings.TrimSpace(f); f != "" {
				sh.Followers = append(sh.Followers, f)
			}
		}
		if sh.Primary == "" {
			return fmt.Errorf("shard needs a primary, got %q", v)
		}
		spec.Shards = append(spec.Shards, sh)
		return nil
	})
	flag.Parse()

	rt, err := cluster.NewRouter(spec)
	if err != nil {
		log.Fatalf("cparouter: %v", err)
	}

	srv := &http.Server{Addr: *addr, Handler: rt}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("cparouter: serving on %s (%d nodes, %d shards)", *addr, len(spec.Nodes), len(spec.Shards))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("cparouter: %s, shutting down", sig)
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Printf("cparouter: serve error: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("cparouter: HTTP shutdown: %v", err)
	}
	log.Printf("cparouter: clean shutdown")
}
