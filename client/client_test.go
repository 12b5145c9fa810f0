package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rdmaagreement"
	"rdmaagreement/internal/wire"
)

// fakeRing serves /v1/ring with the given endpoint map on every fake server,
// so the client's mirror routes exactly where the test wants.
func fakeRing(shards []string, vnodes int, endpoints map[string]string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.RingResponse{Shards: shards, VNodes: vnodes, Endpoints: endpoints})
	}
}

func refuseWith(status int, werr wire.Error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(werr)
	}
}

// newTestClient builds a client whose sleeps are recorded instead of slept
// and whose jitter source is pinned to 0 (jitter(d) = d/2, deterministic).
func newTestClient(t *testing.T, opts Options) (*Client, *[]time.Duration) {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	waits := &[]time.Duration{}
	c.sleep = func(_ context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return nil
	}
	c.random = func() float64 { return 0 }
	return c, waits
}

func TestRetriesBoundedOnPersistentShed(t *testing.T) {
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ring", fakeRing([]string{"shard-0"}, 16, nil))
	mux.HandleFunc("/v1/kv/", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		refuseWith(http.StatusServiceUnavailable, wire.Error{Code: wire.CodeOverloaded, Message: "shed"})(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, waits := newTestClient(t, Options{
		Endpoints:   []string{srv.URL},
		MaxRetries:  3,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
	})
	_, _, err := c.Put(context.Background(), "k", "v")
	if err == nil {
		t.Fatal("Put against a permanently shedding server succeeded")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want errors.Is(_, ErrOverloaded)", err)
	}
	if got := hits.Load(); got != 4 { // MaxRetries+1 attempts
		t.Fatalf("server saw %d attempts, want 4", got)
	}
	// Backoff doubles then caps: 10, 20, 40ms — jittered by the pinned source
	// to exactly half. No fourth sleep: the last attempt's failure returns.
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	if len(*waits) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(*waits), *waits, len(want))
	}
	for i, d := range want {
		if (*waits)[i] != d {
			t.Fatalf("sleep %d = %v, want %v (schedule %v)", i, (*waits)[i], d, *waits)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	c, _ := newTestClient(t, Options{Endpoints: []string{"http://127.0.0.1:1"}})
	const d = 100 * time.Millisecond
	c.random = func() float64 { return 0 }
	if got := c.jitter(d); got != d/2 {
		t.Fatalf("jitter at random=0: %v, want %v", got, d/2)
	}
	c.random = func() float64 { return 0.999999 }
	if got := c.jitter(d); got < d/2 || got >= d {
		t.Fatalf("jitter at random→1: %v, want in [%v, %v)", got, d/2, d)
	}
}

func TestRetryHonorsServerRetryAfter(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ring", fakeRing([]string{"shard-0"}, 16, nil))
	mux.HandleFunc("/v1/kv/", refuseWith(http.StatusServiceUnavailable,
		wire.Error{Code: wire.CodeOverloaded, Message: "shed", RetryAfterMS: 200}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, waits := newTestClient(t, Options{
		Endpoints:   []string{srv.URL},
		MaxRetries:  1,
		BackoffBase: time.Millisecond, // far below the server's hint
	})
	if _, _, err := c.Put(context.Background(), "k", "v"); err == nil {
		t.Fatal("Put succeeded against shedding server")
	}
	// The server's 200ms hint must beat the 1ms local schedule (jittered to
	// half: 100ms).
	if len(*waits) != 1 || (*waits)[0] != 100*time.Millisecond {
		t.Fatalf("waits = %v, want exactly [100ms]", *waits)
	}
}

// TestRetryHintCappedAtBackoffMax: a huge server hint must not park the
// client until its context ends. A hint that fits in a Duration (1e9 ms,
// ≈ 11.6 days) is capped at BackoffMax; one that does not (1e15 ms) is
// ignored, leaving the client's own schedule.
func TestRetryHintCappedAtBackoffMax(t *testing.T) {
	const backoffMax = 40 * time.Millisecond
	for _, tc := range []struct {
		hintMS int64
		want   []time.Duration // jittered by the pinned source to half
	}{
		{1e9, []time.Duration{backoffMax / 2, backoffMax / 2}},
		{1e15, []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/ring", fakeRing([]string{"shard-0"}, 16, nil))
		mux.HandleFunc("/v1/kv/", refuseWith(http.StatusServiceUnavailable,
			wire.Error{Code: wire.CodeOverloaded, Message: "shed", RetryAfterMS: tc.hintMS}))
		srv := httptest.NewServer(mux)
		c, waits := newTestClient(t, Options{
			Endpoints:   []string{srv.URL},
			MaxRetries:  2,
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  backoffMax,
		})
		_, _, err := c.Put(context.Background(), "k", "v")
		srv.Close()
		if err == nil {
			t.Fatalf("hint %d ms: Put succeeded against shedding server", tc.hintMS)
		}
		if fmt.Sprint(*waits) != fmt.Sprint(tc.want) {
			t.Fatalf("hint %d ms: waits = %v, want %v", tc.hintMS, *waits, tc.want)
		}
	}
}

// FuzzDecodeError feeds decodeError arbitrary error bodies and Retry-After
// headers: it must never panic, and never yield a negative RetryAfter (a
// negative, NaN or overflowing hint is ignored, not trusted).
func FuzzDecodeError(f *testing.F) {
	for _, seed := range []struct{ body, retryAfter string }{
		{`{"code":"overloaded","message":"shed","retry_after_ms":50}`, "0.05"},
		{`{"code":"overloaded","retry_after_ms":9000000000000000}`, ""},
		{`{"code":"overloaded","retry_after_ms":-5}`, "2"},
		{`{"code":"lease_lost"}`, "1e300"},
		{`{"code":"key_moved","owner":"shard-1"}`, "-1"},
		{"", "NaN"},
		{"<html>bad gateway</html>", "+Inf"},
		{`{"code":`, "120"},
	} {
		f.Add([]byte(seed.body), seed.retryAfter)
	}
	f.Fuzz(func(t *testing.T, body []byte, retryAfter string) {
		resp := &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{}}
		resp.Header.Set("Retry-After", retryAfter)
		var werr *Error
		if !errors.As(decodeError(resp, body), &werr) {
			t.Fatalf("decodeError did not return an *Error")
		}
		if werr.RetryAfter < 0 {
			t.Fatalf("RetryAfter = %v from body %q, Retry-After %q", werr.RetryAfter, body, retryAfter)
		}
	})
}

func TestCtxCancellationMidRetry(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ring", fakeRing([]string{"shard-0"}, 16, nil))
	mux.HandleFunc("/v1/kv/", refuseWith(http.StatusServiceUnavailable,
		wire.Error{Code: wire.CodeOverloaded, Message: "shed"}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, err := New(Options{
		Endpoints:   []string{srv.URL},
		MaxRetries:  10,
		BackoffBase: 10 * time.Second, // would retry for minutes; ctx must cut in
		BackoffMax:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = c.Put(ctx, "k", "v")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to surface, want prompt", elapsed)
	}
}

func TestKeyMovedReRoutesToOwner(t *testing.T) {
	// Two servers: the ring names owner endpoints for both shards, the key
	// routes to shard-0 (server A), A refuses with owner=shard-1, and the
	// client must land the retry on B — immediately, with no backoff sleep.
	shards := []string{"shard-0", "shard-1"}
	const vnodes = 16

	var aHits, bHits atomic.Int64
	endpoints := map[string]string{}

	muxA := http.NewServeMux()
	muxA.HandleFunc("/v1/kv/", func(w http.ResponseWriter, r *http.Request) {
		aHits.Add(1)
		refuseWith(http.StatusMisdirectedRequest,
			wire.Error{Code: wire.CodeKeyMoved, Message: "moved", Owner: "shard-1"})(w, r)
	})
	muxA.HandleFunc("/v1/ring", func(w http.ResponseWriter, r *http.Request) {
		fakeRing(shards, vnodes, endpoints)(w, r)
	})
	srvA := httptest.NewServer(muxA)
	defer srvA.Close()

	muxB := http.NewServeMux()
	muxB.HandleFunc("/v1/kv/", func(w http.ResponseWriter, r *http.Request) {
		bHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.PutResponse{Shard: "shard-1", Index: 7})
	})
	srvB := httptest.NewServer(muxB)
	defer srvB.Close()

	endpoints["shard-0"], endpoints["shard-1"] = srvA.URL, srvB.URL

	// A key the mirrored ring routes to shard-0, so the first attempt is A's.
	ring := rdmaagreement.NewRing(shards, vnodes)
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe/%d", i)
		if ring.Shard(wire.TenantKey("", k)) == "shard-0" {
			key = k
			break
		}
	}

	c, waits := newTestClient(t, Options{Endpoints: []string{srvA.URL}})
	shard, index, err := c.Put(context.Background(), key, "v")
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if shard != "shard-1" || index != 7 {
		t.Fatalf("Put = %s/%d, want shard-1/7", shard, index)
	}
	if aHits.Load() != 1 || bHits.Load() != 1 {
		t.Fatalf("hits A=%d B=%d, want exactly one each", aHits.Load(), bHits.Load())
	}
	if len(*waits) != 0 {
		t.Fatalf("key_moved re-route slept %v, want no backoff", *waits)
	}
}

func TestTerminalErrorsAreNotRetried(t *testing.T) {
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ring", fakeRing([]string{"shard-0"}, 16, nil))
	mux.HandleFunc("/v1/kv/", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		refuseWith(http.StatusConflict, wire.Error{Code: wire.CodeRebalanceInProgress, Message: "busy"})(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, waits := newTestClient(t, Options{Endpoints: []string{srv.URL}, MaxRetries: 5})
	_, _, err := c.Put(context.Background(), "k", "v")
	if !errors.Is(err, rdmaagreement.ErrRebalanceInProgress) {
		t.Fatalf("err = %v, want errors.Is(_, ErrRebalanceInProgress)", err)
	}
	if hits.Load() != 1 || len(*waits) != 0 {
		t.Fatalf("terminal error retried: %d attempts, %d sleeps", hits.Load(), len(*waits))
	}
}

func TestTenantHeaderOnEveryRequest(t *testing.T) {
	var sawTenant atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ring", fakeRing([]string{"shard-0"}, 16, nil))
	mux.HandleFunc("/v1/kv/", func(w http.ResponseWriter, r *http.Request) {
		sawTenant.Store(r.Header.Get("X-KV-Tenant"))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.GetResponse{Found: false})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, _ := newTestClient(t, Options{Endpoints: []string{srv.URL}, Tenant: "acme"})
	if _, _, err := c.Get(context.Background(), "k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got, _ := sawTenant.Load().(string); got != "acme" {
		t.Fatalf("server saw tenant %q, want acme", got)
	}
}
