// Command kvserver serves a sharded, replicated key-value store — the full
// agreement stack of "The Impact of RDMA on Agreement" under a consistent-
// hash ring — over HTTP/JSON on a real TCP socket.
//
// The store runs in-process: -shards replicated-log groups (3 processes and
// 3 memories each over the simulated RDMA fabric, -latency per memory
// operation), leader leases (-lease) for local linearizable reads and
// automatic failover, and live rebalancing driven through the admin
// endpoints. The serving layer adds per-tenant key namespacing (X-KV-Tenant
// header), bounded in-flight admission (global -max-inflight, per-connection
// -max-inflight-conn) shed with typed 503s + Retry-After, and graceful drain
// on SIGTERM/SIGINT: new requests are refused, in-flight ones finish (up to
// -drain-timeout), then the store shuts down.
//
// See package kvserver for the endpoints and internal/wire for the wire
// shapes and error taxonomy; package client is the matching ring-aware
// client.
//
// Usage:
//
//	kvserver -addr :8080 -shards 4 -lease 250ms
//	kvserver -addr 127.0.0.1:0 -shards 2 -latency 200us -max-inflight 512
//
// Diagnostics go to stderr. Exit codes: 0 clean shutdown, 1 runtime failure,
// 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rdmaagreement"
	"rdmaagreement/kvserver"
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.CommandLine.SetOutput(os.Stderr)
	addr := flag.String("addr", ":8080", "TCP address to serve on")
	advertise := flag.String("advertise", "", "base URL clients should use to reach this server (default: derived from the request's Host header)")
	shards := flag.Int("shards", 4, "replicated-log groups behind the ring")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the ring (0 = default, at most 4096)")
	batch := flag.Int("batch", 8, "max commands agreed as one consensus slot")
	pipeline := flag.Int("pipeline", 0, "slots in flight per group (0 = smr default)")
	lease := flag.Duration("lease", 250*time.Millisecond, "leader lease duration (0 disables leases; linearizable reads then pay the read-index barrier)")
	latency := flag.Duration("latency", 0, "simulated per-operation memory latency of the RDMA fabric")
	snapInterval := flag.Int("snap-interval", 0, "per-group snapshot interval driving slot GC (0 = smr default)")
	maxInflight := flag.Int("max-inflight", 1024, "server-wide bound on admitted in-flight data requests; excess is shed with a typed 503")
	maxInflightConn := flag.Int("max-inflight-conn", 64, "per-connection bound on admitted in-flight data requests")
	retryAfter := flag.Duration("retry-after", 50*time.Millisecond, "backoff hint attached to shed responses")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long a SIGTERM drain waits for in-flight requests before forcing shutdown")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "kvserver: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{
		Shards:       *shards,
		VirtualNodes: *vnodes,
		Log: rdmaagreement.LogOptions{
			Cluster:          rdmaagreement.Options{Processes: 3, Memories: 3, MemoryLatency: *latency, LeaseDuration: *lease},
			MaxBatch:         *batch,
			Pipeline:         *pipeline,
			SnapshotInterval: *snapInterval,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: build store: %v\n", err)
		return 1
	}
	defer kv.Close()

	srv, err := kvserver.New(kvserver.Options{
		Store:              kv,
		Advertise:          *advertise,
		MaxInflight:        *maxInflight,
		MaxInflightPerConn: *maxInflightConn,
		RetryAfter:         *retryAfter,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: listen: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "kvserver: serving %d shards on http://%s/ (lease %s, batch ≤ %d)\n",
		*shards, ln.Addr(), *lease, *batch)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "kvserver: %s — draining (in-flight requests finish, new ones refused; up to %s)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "kvserver: drain: %v\n", err)
			return 1
		}
		<-serveErr // Serve has returned http.ErrServerClosed by now
		fmt.Fprintln(os.Stderr, "kvserver: drained clean")
		return 0
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "kvserver: serve: %v\n", err)
		return 1
	}
}
