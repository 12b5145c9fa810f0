// Package kvserver is the network front-end of the sharded replicated KV: an
// HTTP/JSON server over rdmaagreement.ShardedKV. Everything below it — the
// ring, the per-shard replicated logs, leases, rebalancing — already exists;
// this package only adds the door: request decoding, per-tenant key
// namespacing, backpressure (a global in-flight bound plus a per-connection
// bound, shed with typed 503s and Retry-After), graceful drain, and the
// store's metrics registry re-exposed over /metrics and /debug/vars.
//
// Endpoints (see internal/wire for the exact shapes and error taxonomy):
//
//	PUT    /v1/kv/{key}                 replicate key=value (body {"value":...})
//	GET    /v1/kv/{key}                 local read (formally stale)
//	GET    /v1/kv/{key}?linearizable=1  linearizable read (lease fast path)
//	GET    /v1/ring                     ring geometry + shard endpoints
//	GET    /v1/stats                    ShardedStats + foreign entries
//	POST   /v1/admin/shards/{name}      AddShard under live traffic
//	DELETE /v1/admin/shards/{name}      RemoveShard under live traffic
//	GET    /metrics                     Prometheus-style text exposition
//	GET    /debug/vars                  expvar-shaped JSON snapshot
//
// Tenancy: the X-KV-Tenant header selects a disjoint key namespace (default
// "default"); keys are combined server-side, so tenants cannot read or
// clobber each other's keys and the ring spreads every tenant's load alike.
//
// Backpressure: only the data path (/v1/kv/) is shed — admin, ring, stats
// and metrics stay reachable exactly when an operator needs them most.
package kvserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement"
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/wire"
)

// Options configure a Server.
type Options struct {
	// Store is the sharded KV being served. Required. The Server does not
	// own it: Close the store after Shutdown.
	Store *rdmaagreement.ShardedKV
	// Advertise is the base URL (scheme://host:port) clients should use to
	// reach this server, filled into /v1/ring's endpoint map. Empty derives
	// it per request from the Host header, with https for a TLS request.
	Advertise string
	// MaxInflight bounds concurrently admitted data-path requests across the
	// whole server; excess is shed with a typed 503 (code "overloaded") and
	// a Retry-After hint instead of queueing without bound. Zero means 1024.
	MaxInflight int
	// MaxInflightPerConn bounds concurrently admitted data-path requests per
	// client connection (HTTP/2 streams, pipelined requests), so one greedy
	// connection cannot monopolize the global budget. Zero means 64. It is
	// enforced on connections accepted via Serve; a bare Handler used under
	// a foreign http.Server has no per-connection state to count against.
	MaxInflightPerConn int
	// RetryAfter is the backoff hint attached to shed and draining
	// responses. Zero means 50ms.
	RetryAfter time.Duration
}

// Server serves a ShardedKV over HTTP. Build with New, attach to a listener
// with Serve (or mount Handler under an existing server), stop with
// Shutdown.
type Server struct {
	store *rdmaagreement.ShardedKV
	opts  Options

	mux      *http.ServeMux
	sem      chan struct{}
	draining atomic.Bool

	mu   sync.Mutex
	http *http.Server // guarded by mu

	// Counters live in the store's own registry, so /metrics and the bench's
	// registry snapshots see serving-layer and consensus-layer numbers side
	// by side without a second exposition path.
	served      *metrics.Counter // admitted data-path requests
	shed        *metrics.Counter // refused: global in-flight bound
	shedConn    *metrics.Counter // refused: per-connection bound
	shedDrain   *metrics.Counter // refused: draining
	wireErrors  *metrics.Counter // non-2xx data-path responses (shed excluded)
	inflightNow *metrics.Gauge   // admitted and not yet responded
}

// New builds a Server over opts.Store.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("kvserver: Options.Store is required")
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 1024
	}
	if opts.MaxInflightPerConn <= 0 {
		opts.MaxInflightPerConn = 64
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 50 * time.Millisecond
	}
	reg := opts.Store.Registry()
	s := &Server{
		store:       opts.Store,
		opts:        opts,
		sem:         make(chan struct{}, opts.MaxInflight),
		served:      reg.Counter("server_requests"),
		shed:        reg.Counter("server_shed_overloaded"),
		shedConn:    reg.Counter("server_shed_conn_busy"),
		shedDrain:   reg.Counter("server_shed_draining"),
		wireErrors:  reg.Counter("server_error_responses"),
		inflightNow: reg.Gauge("server_inflight"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/kv/{key...}", s.guard(s.handlePut))
	mux.HandleFunc("GET /v1/kv/{key...}", s.guard(s.handleGet))
	mux.HandleFunc("GET /v1/ring", s.handleRing)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/admin/shards/{name}", s.handleAddShard)
	mux.HandleFunc("DELETE /v1/admin/shards/{name}", s.handleRemoveShard)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux = mux
	return s, nil
}

// Handler returns the server's routing handler, for mounting under an
// existing http.Server or a test harness. Backpressure and drain behave
// identically; only the per-connection bound needs Serve's connection hook.
func (s *Server) Handler() http.Handler { return s.mux }

// connState counts one accepted connection's admitted in-flight requests.
type connState struct{ inflight atomic.Int64 }

// connKey carries the connState through the request context.
type connKey struct{}

// Connection timeouts of Serve: a client that stalls mid-header, or parks an
// idle keep-alive connection, must not hold a connection forever. Neither
// bounds a request's body or handler, whose time is the consensus path's.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve accepts connections on ln until Shutdown. It wires the
// per-connection accounting that the bare Handler cannot.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		ConnContext: func(ctx context.Context, _ net.Conn) context.Context {
			return context.WithValue(ctx, connKey{}, &connState{})
		},
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	s.http = srv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Shutdown drains the server: new requests (and new connections) are refused
// with typed 503s, in-flight requests run to completion, and Shutdown
// returns once every connection is idle or ctx expires. The store itself
// stays open — close it after Shutdown so in-flight commits can finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// guard is the data-path admission control: drain check, per-connection
// bound, then the global bound. Refusals are typed, counted, and carry the
// Retry-After hint; admitted requests are counted and gauged.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.shedDrain.Inc()
			s.refuse(w, wire.CodeDraining, "server is draining")
			return
		}
		if cs, ok := r.Context().Value(connKey{}).(*connState); ok {
			if cs.inflight.Add(1) > int64(s.opts.MaxInflightPerConn) {
				cs.inflight.Add(-1)
				s.shedConn.Inc()
				s.refuse(w, wire.CodeConnBusy, fmt.Sprintf("connection exceeds %d in-flight requests", s.opts.MaxInflightPerConn))
				return
			}
			defer cs.inflight.Add(-1)
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Inc()
			s.refuse(w, wire.CodeOverloaded, fmt.Sprintf("server exceeds %d in-flight requests", s.opts.MaxInflight))
			return
		}
		s.served.Inc()
		s.inflightNow.Add(1)
		defer s.inflightNow.Add(-1)
		h(w, r)
	}
}

// refuse sheds one request with a typed 503 + Retry-After.
func (s *Server) refuse(w http.ResponseWriter, code, msg string) {
	retry := s.opts.RetryAfter
	w.Header().Set("Retry-After", strconv.FormatFloat(retry.Seconds(), 'f', -1, 64))
	writeJSON(w, http.StatusServiceUnavailable, &wire.Error{
		Code: code, Message: msg, RetryAfterMS: retry.Milliseconds(),
	})
}

// tenantKey resolves the request's store-level key: tenant namespace (from
// the X-KV-Tenant header) joined with the path key.
func tenantKey(r *http.Request) (string, error) {
	key := r.PathValue("key")
	if key == "" {
		return "", errors.New("empty key")
	}
	return wire.TenantKey(r.Header.Get("X-KV-Tenant"), key), nil
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, err := tenantKey(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	var req wire.PutRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf("decode body: %v", err))
		return
	}
	shard, index, err := s.store.Put(r.Context(), key, req.Value)
	if err != nil {
		s.storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.PutResponse{Shard: shard, Index: index})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, err := tenantKey(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	var value string
	var found bool
	if lin := r.URL.Query().Get("linearizable"); lin == "1" || lin == "true" {
		value, found, err = s.store.GetLinearizable(r.Context(), key)
	} else {
		value, found, err = s.store.GetWithContext(r.Context(), key)
	}
	if err != nil {
		s.storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.GetResponse{Value: value, Found: found, Shard: s.store.Shard(key)})
}

func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	shards, vnodes := s.store.RingConfig()
	base := s.opts.Advertise
	if base == "" {
		scheme := "http://"
		if r.TLS != nil {
			scheme = "https://"
		}
		base = scheme + r.Host
	}
	endpoints := make(map[string]string, len(shards))
	for _, name := range shards {
		endpoints[name] = base
	}
	writeJSON(w, http.StatusOK, wire.RingResponse{Shards: shards, VNodes: vnodes, Endpoints: endpoints})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, wire.StatsResponse{
		ShardedStats:   s.store.Stats(),
		ForeignEntries: s.store.ForeignEntries(),
	})
}

func (s *Server) handleAddShard(w http.ResponseWriter, r *http.Request) {
	s.handleShardChange(w, r, s.store.AddShard)
}

func (s *Server) handleRemoveShard(w http.ResponseWriter, r *http.Request) {
	s.handleShardChange(w, r, s.store.RemoveShard)
}

func (s *Server) handleShardChange(w http.ResponseWriter, r *http.Request, op func(context.Context, string) error) {
	name := r.PathValue("name")
	if name == "" {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, "empty shard name")
		return
	}
	if err := op(r.Context(), name); err != nil {
		s.storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.AdminResponse{Shard: name, Shards: s.store.Shards()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.store.Registry().WriteText(w)
}

// handleVars serves an expvar-shaped JSON snapshot of the store's registry.
// It deliberately does not touch the process-global expvar table: a second
// server in the same process (tests, the bench's -net mode next to
// -metrics-addr) must not panic on a duplicate Publish.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"smr": s.store.Registry().Snapshot()})
}

// storeError translates a store error into its wire form, tallying it.
func (s *Server) storeError(w http.ResponseWriter, err error) {
	status, werr := wire.FromError(err)
	s.wireErrors.Inc()
	writeJSON(w, status, werr)
}

// fail writes a typed error response the wire taxonomy names directly.
func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	s.wireErrors.Inc()
	writeJSON(w, status, &wire.Error{Code: code, Message: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
