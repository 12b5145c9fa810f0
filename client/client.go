// Package client is the ring-aware network client of the kvserver front-end:
// the router's mirror image on the other side of the socket.
//
// The client fetches the server's ring geometry once (GET /v1/ring), rebuilds
// the identical consistent-hash ring locally (rdmaagreement.NewRing — same
// hash, same virtual nodes, same tie-breaking), and routes every request to
// the endpoint serving the owning shard first, so in the common case a
// request costs one hop. When routing is stale it self-corrects: a typed
// key_moved refusal carries the new owner's shard name, and the client
// re-routes directly — no ring rediscovery on the hot path — refreshing its
// ring mirror in the background of the retry.
//
// Retries are transparent and bounded: key_moved, lease_lost (the store's
// provably-did-not-commit contract makes resubmission safe), shed 503s and
// transport errors are retried with jittered exponential backoff (server
// Retry-After hints respected), up to Options.MaxRetries attempts and never
// past ctx. Every other failure surfaces as a typed error that round-trips
// the server's taxonomy: errors.Is(err, rdmaagreement.ErrKeyMoved),
// errors.Is(err, client.ErrOverloaded) and friends work exactly as they
// would in-process.
//
// Connections are pooled (one shared http.Transport with generous per-host
// idle limits) so a closed-loop workload reuses sockets instead of
// re-dialing per request.
//
//smrlint:wire consumer
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement"
	"rdmaagreement/internal/wire"
)

// Serving-layer errors, matchable with errors.Is. Store-layer errors
// (ErrKeyMoved, ErrLeaseLost, ErrRebalanceInProgress, …) round-trip to the
// rdmaagreement sentinels instead.
var (
	// ErrOverloaded is the client-side form of a shed request: the server
	// refused it at admission (global or per-connection in-flight bound), so
	// it provably did not touch the store.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrDraining means the server is shutting down gracefully and refused
	// the request at admission.
	ErrDraining = errors.New("client: server draining")
)

// Error is a typed server response: the wire taxonomy plus the HTTP status
// it rode in on. Use errors.As to inspect the code/owner, errors.Is against
// the sentinels for dispatch.
type Error struct {
	// Code is the wire taxonomy code ("key_moved", "overloaded", …).
	Code string
	// Message is the server's human-readable description.
	Message string
	// Owner names the shard that owns the key (key_moved only, best effort).
	Owner string
	// Status is the HTTP status code of the response.
	Status int
	// RetryAfter is the server's backoff hint, if any.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Owner != "" {
		return fmt.Sprintf("server %d %s: %s (owner %s)", e.Status, e.Code, e.Message, e.Owner)
	}
	return fmt.Sprintf("server %d %s: %s", e.Status, e.Code, e.Message)
}

// Unwrap maps the wire code back to its canonical sentinel, so the error
// taxonomy survives the network: errors.Is(err, rdmaagreement.ErrKeyMoved)
// on a decoded key_moved, errors.Is(err, ErrOverloaded) on a shed request.
func (e *Error) Unwrap() error {
	switch e.Code {
	case wire.CodeOverloaded, wire.CodeConnBusy:
		return ErrOverloaded
	case wire.CodeDraining:
		return ErrDraining
	}
	return wire.Sentinel(e.Code)
}

// Stats is the served form of the store's aggregate counters.
type Stats struct {
	rdmaagreement.ShardedStats
	ForeignEntries int64 `json:"foreign_entries"`
}

// Options configure a Client.
type Options struct {
	// Endpoints are base URLs of kvserver instances ("http://host:port"), in
	// preference order for requests the ring cannot route. At least one is
	// required; the ring geometry is fetched from the first reachable one.
	Endpoints []string
	// Tenant is the key namespace every request runs under. Empty means the
	// server default ("default").
	Tenant string
	// MaxRetries bounds transparent retries per operation (total attempts =
	// MaxRetries + 1). Zero means 8; negative disables retries.
	MaxRetries int
	// BackoffBase is the first retry's backoff; it doubles per attempt with
	// uniform jitter in [d/2, d). Zero means 5ms.
	BackoffBase time.Duration
	// BackoffMax caps every wait between attempts: the exponential backoff
	// and the server's Retry-After hints alike. Zero means 500ms.
	BackoffMax time.Duration
	// HTTPClient overrides the pooled default (for TLS, proxies, tests).
	HTTPClient *http.Client
}

// Client is a ring-aware KV client. Safe for concurrent use.
type Client struct {
	opts Options
	hc   *http.Client
	own  *http.Transport // set when the client built its own pooled transport

	mu        sync.RWMutex
	ring      *rdmaagreement.Ring // guarded by mu
	endpoints map[string]string   // guarded by mu; shard name → base URL

	rr atomic.Uint64 // round-robin cursor over Options.Endpoints

	// Test seams: jittered sleep and the jitter source itself.
	sleep  func(ctx context.Context, d time.Duration) error
	random func() float64
}

// New builds a Client over the given endpoints. It does not touch the
// network; the ring mirror is fetched lazily on first use (or explicitly via
// RefreshRing).
func New(opts Options) (*Client, error) {
	if len(opts.Endpoints) == 0 {
		return nil, errors.New("client: at least one endpoint is required")
	}
	for i, ep := range opts.Endpoints {
		u, err := url.Parse(ep)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("client: endpoint %q is not a base URL", ep)
		}
		opts.Endpoints[i] = u.Scheme + "://" + u.Host
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 8
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 5 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 500 * time.Millisecond
	}
	c := &Client{opts: opts, sleep: sleepCtx, random: rand.Float64}
	if opts.HTTPClient != nil {
		c.hc = opts.HTTPClient
	} else {
		c.own = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}
		c.hc = &http.Client{Transport: c.own}
	}
	return c, nil
}

// Close releases pooled idle connections. In-flight requests finish.
func (c *Client) Close() {
	if c.own != nil {
		c.own.CloseIdleConnections()
	}
}

// Put replicates key=value through the owning shard's log, returning the
// shard's name and the command's log index. Like ShardedKV.Put, a nil error
// means committed and applied.
func (c *Client) Put(ctx context.Context, key, value string) (shard string, index uint64, err error) {
	var resp wire.PutResponse
	err = c.withRetry(ctx, "put", key, func(base string) error {
		return c.do(ctx, http.MethodPut, base+"/v1/kv/"+url.PathEscape(key), wire.PutRequest{Value: value}, &resp)
	})
	return resp.Shard, resp.Index, err
}

// Get returns the key's last committed value from the owning shard's
// freshest local replica view — local and fast, formally a stale read.
func (c *Client) Get(ctx context.Context, key string) (string, bool, error) {
	return c.get(ctx, key, false)
}

// GetLinearizable returns the key's value with the full linearizability
// guarantee (the lease fast path serves it locally when healthy).
func (c *Client) GetLinearizable(ctx context.Context, key string) (string, bool, error) {
	return c.get(ctx, key, true)
}

func (c *Client) get(ctx context.Context, key string, linearizable bool) (string, bool, error) {
	var resp wire.GetResponse
	verb, suffix := "get", ""
	if linearizable {
		verb, suffix = "linearizable get", "?linearizable=1"
	}
	err := c.withRetry(ctx, verb, key, func(base string) error {
		return c.do(ctx, http.MethodGet, base+"/v1/kv/"+url.PathEscape(key)+suffix, nil, &resp)
	})
	if err != nil {
		return "", false, err
	}
	return resp.Value, resp.Found, nil
}

// Stats fetches the store-wide counters from any reachable endpoint.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var stats Stats
	err := c.withRetry(ctx, "stats", "", func(base string) error {
		return c.do(ctx, http.MethodGet, base+"/v1/stats", nil, &stats)
	})
	return stats, err
}

// AddShard grows the served ring by one shard group under live traffic (the
// admin endpoint; see ShardedKV.AddShard for the handoff semantics). The
// ring mirror refreshes on success.
func (c *Client) AddShard(ctx context.Context, name string) error {
	return c.adminShard(ctx, http.MethodPost, name)
}

// RemoveShard drains the named shard into the survivors and retires it.
func (c *Client) RemoveShard(ctx context.Context, name string) error {
	return c.adminShard(ctx, http.MethodDelete, name)
}

func (c *Client) adminShard(ctx context.Context, method, name string) error {
	var resp wire.AdminResponse
	err := c.withRetry(ctx, "admin shard", "", func(base string) error {
		return c.do(ctx, method, base+"/v1/admin/shards/"+url.PathEscape(name), nil, &resp)
	})
	if err != nil {
		return err
	}
	// Routing changed; refresh the mirror now rather than discovering it one
	// key_moved at a time. Best effort — stale routing self-corrects anyway.
	_ = c.RefreshRing(ctx)
	return nil
}

// Shards returns the ring mirror's shard names (fetching the ring on first
// use).
func (c *Client) Shards(ctx context.Context) ([]string, error) {
	c.mu.RLock()
	ring := c.ring
	c.mu.RUnlock()
	if ring == nil {
		if err := c.RefreshRing(ctx); err != nil {
			return nil, err
		}
		c.mu.RLock()
		ring = c.ring
		c.mu.RUnlock()
	}
	return ring.Shards(), nil
}

// RefreshRing fetches the ring geometry from the first reachable endpoint
// and swaps the local mirror. Called lazily on first routed request, after
// admin shard changes, and when a key_moved refusal arrives without a usable
// owner endpoint.
func (c *Client) RefreshRing(ctx context.Context) error {
	var lastErr error
	for range c.opts.Endpoints {
		base := c.nextEndpoint()
		var resp wire.RingResponse
		if err := c.do(ctx, http.MethodGet, base+"/v1/ring", nil, &resp); err != nil {
			lastErr = err
			continue
		}
		endpoints := make(map[string]string, len(resp.Shards))
		for _, name := range resp.Shards {
			if ep := resp.Endpoints[name]; ep != "" {
				endpoints[name] = ep
			} else {
				endpoints[name] = base
			}
		}
		c.mu.Lock()
		c.ring = rdmaagreement.NewRing(resp.Shards, resp.VNodes)
		c.endpoints = endpoints
		c.mu.Unlock()
		return nil
	}
	return fmt.Errorf("client: refresh ring: %w", lastErr)
}

// route resolves the endpoint to try first for key: the owning shard's, by
// the ring mirror, falling back to round-robin over the configured
// endpoints while no mirror exists.
func (c *Client) route(key string) string {
	if key == "" {
		return c.nextEndpoint()
	}
	storeKey := wire.TenantKey(c.opts.Tenant, key)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.ring == nil {
		return c.opts.Endpoints[0]
	}
	if ep := c.endpoints[c.ring.Shard(storeKey)]; ep != "" {
		return ep
	}
	return c.opts.Endpoints[0]
}

// endpointOf looks a shard's endpoint up in the mirror.
func (c *Client) endpointOf(shard string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ep, ok := c.endpoints[shard]
	return ep, ok
}

func (c *Client) nextEndpoint() string {
	n := c.rr.Add(1)
	return c.opts.Endpoints[int(n-1)%len(c.opts.Endpoints)]
}

// withRetry runs do against key's routed endpoint, transparently retrying
// the retryable taxonomy — immediate re-route on key_moved (the refusal
// names the owner), jittered exponential backoff on shed/lease-lost/
// transport errors — bounded by MaxRetries and ctx.
func (c *Client) withRetry(ctx context.Context, verb, key string, do func(base string) error) error {
	// Routing wants a ring mirror; fetch it lazily once. A failure is not
	// fatal — requests fall back to the configured endpoints.
	c.mu.RLock()
	haveRing := c.ring != nil
	c.mu.RUnlock()
	if !haveRing && key != "" {
		_ = c.RefreshRing(ctx)
	}
	base := c.route(key)
	for attempt := 0; ; attempt++ {
		err := do(base)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: %s %q: %w", verb, key, ctx.Err())
		}
		var werr *Error
		wait := time.Duration(0)
		switch {
		case errors.As(err, &werr) && werr.Code == wire.CodeKeyMoved:
			// The refusal names the new owner: re-route directly, no
			// backoff. Without a usable owner endpoint, refresh the ring and
			// re-route by the new mirror.
			if ep, ok := c.endpointOf(werr.Owner); werr.Owner != "" && ok {
				base = ep
			} else {
				_ = c.RefreshRing(ctx)
				base = c.route(key)
			}
		case errors.As(err, &werr) && wire.Retryable(werr.Code):
			wait = c.backoff(attempt)
			if werr.RetryAfter > wait {
				wait = min(werr.RetryAfter, c.opts.BackoffMax)
			}
			if werr.Code == wire.CodeDraining {
				base = c.nextEndpoint() // this server is going away
			}
		case errors.As(err, &werr):
			// Typed and terminal (bad_request, rebalance_in_progress,
			// internal, …): surface it.
			return fmt.Errorf("client: %s %q: %w", verb, key, err)
		default:
			// Transport error: the endpoint may be down; rotate and back
			// off.
			base = c.nextEndpoint()
			wait = c.backoff(attempt)
		}
		if attempt >= c.opts.MaxRetries {
			return fmt.Errorf("client: %s %q: retries exhausted after %d attempts: %w", verb, key, attempt+1, err)
		}
		if wait > 0 {
			if serr := c.sleep(ctx, c.jitter(wait)); serr != nil {
				return fmt.Errorf("client: %s %q: %w", verb, key, serr)
			}
		}
	}
}

// backoff is the exponential schedule before jitter: base·2^attempt, capped.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase
	for i := 0; i < attempt && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	return d
}

// jitter spreads a backoff uniformly over [d/2, d): retries desynchronize
// instead of stampeding the server that just shed them all at once.
func (c *Client) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(c.random()*float64(d/2))
}

// do performs one HTTP exchange: marshal, send, classify. A non-2xx
// response decodes into *Error (typed, taxonomy-preserving); transport
// failures return as-is.
func (c *Client) do(ctx context.Context, method, u string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.opts.Tenant != "" {
		req.Header.Set("X-KV-Tenant", c.opts.Tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, blob)
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
	}
	return nil
}

// decodeError turns a non-2xx response into a typed *Error, preserving the
// taxonomy when the body carries one and synthesizing an internal error when
// it does not (a proxy's bare 502, a truncated body).
func decodeError(resp *http.Response, blob []byte) error {
	e := &Error{Status: resp.StatusCode, Code: wire.CodeInternal, Message: http.StatusText(resp.StatusCode)}
	var werr wire.Error
	if err := json.Unmarshal(blob, &werr); err == nil && werr.Code != "" {
		e.Code, e.Message, e.Owner = werr.Code, werr.Message, werr.Owner
		e.RetryAfter = retryHint(float64(werr.RetryAfterMS) * float64(time.Millisecond))
	}
	if e.RetryAfter == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.ParseFloat(ra, 64); err == nil {
				e.RetryAfter = retryHint(secs * float64(time.Second))
			}
		}
	}
	return e
}

// retryHint converts a server's retry hint in nanoseconds to a Duration, or
// zero when it is not positive (NaN included) or does not fit in one.
func retryHint(ns float64) time.Duration {
	if ns > 0 && ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return 0
}

// sleepCtx is a context-bounded sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
