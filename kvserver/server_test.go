package kvserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rdmaagreement"
	"rdmaagreement/client"
	"rdmaagreement/internal/wire"
)

func newTestKV(t *testing.T) *rdmaagreement.ShardedKV {
	t.Helper()
	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{
		Shards: 2,
		Log:    rdmaagreement.LogOptions{Cluster: rdmaagreement.Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	t.Cleanup(kv.Close)
	return kv
}

// startServer runs a Server over a real loopback listener (so per-connection
// accounting is wired) and tears it down with the test.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return srv, "http://" + ln.Addr().String()
}

func doJSON(t *testing.T, method, u string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, u, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, blob
}

func TestServeEndToEnd(t *testing.T) {
	kv := newTestKV(t)
	_, base := startServer(t, Options{Store: kv})

	// Put, then read it back stale and linearizable.
	resp, blob := doJSON(t, http.MethodPut, base+"/v1/kv/user/42", wire.PutRequest{Value: "alice"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status = %d, body %s", resp.StatusCode, blob)
	}
	var put wire.PutResponse
	if err := json.Unmarshal(blob, &put); err != nil || put.Shard == "" {
		t.Fatalf("put response %s (err %v), want a shard name", blob, err)
	}
	for _, suffix := range []string{"", "?linearizable=1"} {
		resp, blob = doJSON(t, http.MethodGet, base+"/v1/kv/user/42"+suffix, nil, nil)
		var get wire.GetResponse
		if err := json.Unmarshal(blob, &get); err != nil || resp.StatusCode != http.StatusOK || !get.Found || get.Value != "alice" {
			t.Fatalf("get%s = %d %s (err %v), want found alice", suffix, resp.StatusCode, blob, err)
		}
	}

	// Ring: geometry a client can mirror, every shard mapped to an endpoint.
	resp, blob = doJSON(t, http.MethodGet, base+"/v1/ring", nil, nil)
	var ring wire.RingResponse
	if err := json.Unmarshal(blob, &ring); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ring = %d %s (err %v)", resp.StatusCode, blob, err)
	}
	if len(ring.Shards) != 2 || ring.VNodes <= 0 || len(ring.Endpoints) != 2 {
		t.Fatalf("ring response %+v, want 2 shards with endpoints and vnodes", ring)
	}

	// Stats and the two metrics expositions.
	resp, blob = doJSON(t, http.MethodGet, base+"/v1/stats", nil, nil)
	var stats wire.StatsResponse
	if err := json.Unmarshal(blob, &stats); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d %s (err %v)", resp.StatusCode, blob, err)
	}
	resp, blob = doJSON(t, http.MethodGet, base+"/metrics", nil, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(blob), "server_requests") {
		t.Fatalf("/metrics = %d, want text exposition containing server_requests", resp.StatusCode)
	}
	resp, blob = doJSON(t, http.MethodGet, base+"/debug/vars", nil, nil)
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(blob, &vars); err != nil || resp.StatusCode != http.StatusOK || vars["smr"] == nil {
		t.Fatalf("/debug/vars = %d %s (err %v), want {\"smr\": ...}", resp.StatusCode, blob, err)
	}

	// Admin: grow the ring through the endpoint, then observe it in /v1/ring.
	resp, blob = doJSON(t, http.MethodPost, base+"/v1/admin/shards/shard-2", nil, nil)
	var admin wire.AdminResponse
	if err := json.Unmarshal(blob, &admin); err != nil || resp.StatusCode != http.StatusOK || len(admin.Shards) != 3 {
		t.Fatalf("add shard = %d %s (err %v), want 3 shards", resp.StatusCode, blob, err)
	}
	if v, ok, err := kv.GetLinearizable(context.Background(), wire.TenantKey("", "user/42")); err != nil || !ok || v != "alice" {
		t.Fatalf("store after admin rebalance = %q, %v, %v", v, ok, err)
	}
}

// TestAdminRebalanceUnderServedTraffic grows the ring through the admin
// endpoint while closed-loop writers put through the ring-aware client: no
// put may fail, the handoff must move keys, and afterwards every acknowledged
// key must read back linearizably and live in exactly one group's machine.
func TestAdminRebalanceUnderServedTraffic(t *testing.T) {
	kv := newTestKV(t)
	_, base := startServer(t, Options{Store: kv})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const writers, trigger, tail = 4, 32, 8 // one client per writer, plus the admin's
	clients := make([]*client.Client, writers+1)
	for i := range clients {
		cl, err := client.New(client.Options{Endpoints: []string{base}})
		if err != nil {
			t.Fatalf("client.New: %v", err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	// Each writer puts its own keys until the rebalance is done, then a few
	// more so traffic straddles both ends of the handoff. reached closes at
	// the trigger, or early on a failed put (puts give up when ctx expires).
	var (
		mu       sync.Mutex
		acked    = make(map[string]string)
		putErr   error
		wg       sync.WaitGroup
		reached  = make(chan struct{})
		reachOne sync.Once
		done     = make(chan struct{})
	)
	for w, cl := range clients[:writers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer reachOne.Do(func() { close(reached) })
			for i, after := 0, -1; after < tail; i++ {
				key, value := fmt.Sprintf("w%d/%d", w, i), fmt.Sprintf("v%d", i)
				_, _, err := cl.Put(ctx, key, value)
				mu.Lock()
				if err != nil {
					putErr = fmt.Errorf("put %s: %w", key, err)
					mu.Unlock()
					return
				}
				acked[key] = value
				if len(acked) >= trigger {
					reachOne.Do(func() { close(reached) })
				}
				mu.Unlock()
				select {
				case <-done:
					after++
				default:
				}
			}
		}()
	}

	admin := clients[writers]
	<-reached
	err := admin.AddShard(ctx, "shard-2")
	close(done)
	wg.Wait()
	if putErr != nil {
		t.Fatalf("a put failed under the rebalance: %v", putErr)
	}
	if err != nil {
		t.Fatalf("admin AddShard under traffic: %v", err)
	}
	if m := kv.Stats().Migrated; m < 1 {
		t.Fatalf("Stats().Migrated = %d, want ≥ 1", m)
	}

	for key, want := range acked {
		if v, ok, err := admin.GetLinearizable(ctx, key); err != nil || !ok || v != want {
			t.Fatalf("served read of %q = %q, %v, %v; want %q", key, v, ok, err, want)
		}
		// A raw, untagged read bypasses routing and the ownership gate, so it
		// sees each machine's true contents, ceded state included.
		stored, homes := wire.TenantKey("", key), 0
		for _, name := range kv.Shards() {
			resp, err := kv.ShardLog(name).Read(ctx, []byte(stored))
			_, found, derr := rdmaagreement.DecodeKVResult(resp)
			if err != nil || derr != nil {
				t.Fatalf("raw read of %q on %s: %v (decode: %v)", stored, name, err, derr)
			}
			if found {
				homes++
			}
		}
		if homes != 1 {
			t.Fatalf("key %q lives in %d groups after the rebalance, want exactly 1", stored, homes)
		}
	}
}

func TestTenantNamespacesAreDisjoint(t *testing.T) {
	kv := newTestKV(t)
	_, base := startServer(t, Options{Store: kv})

	resp, blob := doJSON(t, http.MethodPut, base+"/v1/kv/color", wire.PutRequest{Value: "green"}, map[string]string{"X-KV-Tenant": "t1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant put = %d %s", resp.StatusCode, blob)
	}
	// The other tenant (and the default namespace) must not see it.
	for _, hdr := range []map[string]string{{"X-KV-Tenant": "t2"}, nil} {
		_, blob = doJSON(t, http.MethodGet, base+"/v1/kv/color?linearizable=1", nil, hdr)
		var get wire.GetResponse
		if err := json.Unmarshal(blob, &get); err != nil || get.Found {
			t.Fatalf("cross-tenant get (hdr %v) = %s (err %v), want not found", hdr, blob, err)
		}
	}
	_, blob = doJSON(t, http.MethodGet, base+"/v1/kv/color?linearizable=1", nil, map[string]string{"X-KV-Tenant": "t1"})
	var get wire.GetResponse
	if err := json.Unmarshal(blob, &get); err != nil || !get.Found || get.Value != "green" {
		t.Fatalf("same-tenant get = %s (err %v), want green", blob, err)
	}
}

func TestLoadShedOverloaded(t *testing.T) {
	kv := newTestKV(t)
	srv, base := startServer(t, Options{Store: kv, MaxInflight: 2, RetryAfter: 80 * time.Millisecond})

	// Fill the global in-flight budget; the next data request must be shed
	// with the typed 503 and the Retry-After hint, without queueing.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	defer func() { <-srv.sem; <-srv.sem }()

	resp, blob := doJSON(t, http.MethodGet, base+"/v1/kv/any", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	var werr wire.Error
	if err := json.Unmarshal(blob, &werr); err != nil || werr.Code != wire.CodeOverloaded {
		t.Fatalf("shed body = %s (err %v), want code overloaded", blob, err)
	}
	if werr.RetryAfterMS != 80 {
		t.Fatalf("RetryAfterMS = %d, want 80", werr.RetryAfterMS)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response lacks Retry-After header")
	}
	if got := srv.shed.Load(); got != 1 {
		t.Fatalf("server_shed_overloaded = %d, want 1", got)
	}

	// Admin, ring, stats and metrics must stay reachable while the data path
	// sheds — that is when an operator needs them.
	for _, path := range []string{"/v1/ring", "/v1/stats", "/metrics", "/debug/vars"} {
		if resp, _ := doJSON(t, http.MethodGet, base+path, nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s sheds (%d) while overloaded, must stay reachable", path, resp.StatusCode)
		}
	}
}

func TestLoadShedPerConnection(t *testing.T) {
	kv := newTestKV(t)
	srv, err := New(Options{Store: kv, MaxInflightPerConn: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Simulate a connection that already has its full budget in flight.
	cs := &connState{}
	cs.inflight.Store(4)
	req := httptest.NewRequest(http.MethodGet, "/v1/kv/any", nil)
	req = req.WithContext(context.WithValue(req.Context(), connKey{}, cs))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	var werr wire.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &werr); err != nil || werr.Code != wire.CodeConnBusy {
		t.Fatalf("body = %s (err %v), want code conn_busy", rec.Body.Bytes(), err)
	}
	if got := cs.inflight.Load(); got != 4 {
		t.Fatalf("refusal leaked in-flight accounting: %d, want 4", got)
	}
	// The same request on a fresh connection is admitted.
	cs2 := &connState{}
	req2 := httptest.NewRequest(http.MethodGet, "/v1/kv/any", nil)
	req2 = req2.WithContext(context.WithValue(req2.Context(), connKey{}, cs2))
	rec2 := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("fresh connection status = %d, want 200", rec2.Code)
	}
}

func TestDrainRefusesNewRequests(t *testing.T) {
	kv := newTestKV(t)
	srv, err := New(Options{Store: kv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.draining.Store(true)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/kv/any", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	var werr wire.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &werr); err != nil || werr.Code != wire.CodeDraining {
		t.Fatalf("body = %s (err %v), want code draining", rec.Body.Bytes(), err)
	}
}

func TestGracefulDrainFinishesInflight(t *testing.T) {
	kv := newTestKV(t)
	srv, base := startServer(t, Options{Store: kv})

	// A burst of puts in flight while Shutdown fires: every one must complete
	// with a committed 200 — drain means finish, not abort.
	const n = 8
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := doJSON(t, http.MethodPut, fmt.Sprintf("%s/v1/kv/drain/%d", base, i), wire.PutRequest{Value: "v"}, nil)
			results[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the burst reach the server
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, code := range results {
		if code != http.StatusOK {
			t.Fatalf("in-flight put %d finished with %d during drain, want 200", i, code)
		}
	}
	// The drained server accepts nothing new.
	if _, err := http.Get(base + "/v1/kv/after"); err == nil {
		t.Fatal("request after drain succeeded, want connection failure")
	}
}

// TestStalledHeaderIsClosed pins Serve's header timeout: a client that writes
// half a request line and stalls must have its connection closed once
// readHeaderTimeout passes, instead of holding it forever.
func TestStalledHeaderIsClosed(t *testing.T) {
	saved := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = saved })
	_, base := startServer(t, Options{Store: newTestKV(t)})

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/ri")); err != nil {
		t.Fatalf("write half a request line: %v", err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatalf("SetReadDeadline: %v", err)
	}
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled header (header timeout %v)", time.Since(start), readHeaderTimeout)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("connection closed after %v, before the header timeout could fire", elapsed)
	}
}
