package wire_test

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdmaagreement"
	"rdmaagreement/client"
	"rdmaagreement/internal/types"
	"rdmaagreement/internal/wire"
	"rdmaagreement/kvserver"
)

// The taxonomy is closed when every code has a class and meets its class's
// obligations from the producer to the client:
//
//   - store codes come from a store error through FromError, and the client
//     error they decode to is errors.Is the root-package sentinel Sentinel
//     names;
//   - admission codes come from kvserver's admission control, have no
//     Sentinel, are Retryable, and decode to client.ErrOverloaded or
//     client.ErrDraining;
//   - anonymous codes come from a store error through FromError, have no
//     Sentinel and decode to a client error that wraps nothing.
type class string

const (
	store     class = "store"
	admission class = "admission"
	anonymous class = "anonymous"
)

// taxonomy classifies every code. cause is a store error FromError turns
// into the code (store and anonymous codes); is is the sentinel the decoded
// client error must match (nil for anonymous codes); retryable is what
// Retryable says of a store code, as admission codes are always retryable
// and anonymous codes never.
var taxonomy = map[string]struct {
	class     class
	cause     error
	is        error
	retryable bool
}{
	wire.CodeKeyMoved:            {store, rdmaagreement.ErrKeyMoved, rdmaagreement.ErrKeyMoved, true},
	wire.CodeLeaseLost:           {store, rdmaagreement.ErrLeaseLost, rdmaagreement.ErrLeaseLost, true},
	wire.CodeRebalanceInProgress: {store, rdmaagreement.ErrRebalanceInProgress, rdmaagreement.ErrRebalanceInProgress, false},
	wire.CodeClosed:              {store, rdmaagreement.ErrLogClosed, rdmaagreement.ErrLogClosed, false},
	wire.CodeHalted:              {store, rdmaagreement.ErrLogHalted, rdmaagreement.ErrLogHalted, false},
	wire.CodeOverloaded:          {admission, nil, client.ErrOverloaded, true},
	wire.CodeConnBusy:            {admission, nil, client.ErrOverloaded, true},
	wire.CodeDraining:            {admission, nil, client.ErrDraining, true},
	wire.CodeDeadline:            {anonymous, context.DeadlineExceeded, nil, false},
	wire.CodeBadRequest:          {anonymous, fmt.Errorf("shard name: %w", types.ErrInvalidConfig), nil, false},
	wire.CodeInternal:            {anonymous, errors.New("disk on fire"), nil, false},
}

// wireCodes parses wire.go and returns its Code* constants, value → name.
func wireCodes(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	codes := make(map[string]string)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Code") {
					continue
				}
				value, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil || codes[value] != "" {
					t.Fatalf("%s: want a string literal no other code spells", name.Name)
				}
				codes[value] = name.Name
			}
		}
	}
	return codes
}

// TestTaxonomyIsClassified fails if wire.go declares a code the class table
// does not classify, or the table names a class that does not exist.
func TestTaxonomyIsClassified(t *testing.T) {
	codes := wireCodes(t)
	for value, name := range codes {
		e, ok := taxonomy[value]
		if !ok {
			t.Errorf("%s (%q) has no class: add it to the taxonomy table", name, value)
			continue
		}
		switch e.class {
		case store, admission, anonymous:
		default:
			t.Errorf("%s has unknown class %q (want store, admission or anonymous)", name, e.class)
		}
	}
	if len(codes) != len(taxonomy) {
		t.Errorf("wire.go declares %d codes, the taxonomy table classifies %d", len(codes), len(taxonomy))
	}
}

// TestTaxonomyRoundTrip sends every code from its producer through HTTP to a
// client decode and checks its class's obligations on what the client sees.
func TestTaxonomyRoundTrip(t *testing.T) {
	observed := admissionRefusals(t)
	for code, e := range taxonomy {
		if e.class != admission {
			observed[code] = storeRefusal(t, e.cause)
		}
	}
	for code, e := range taxonomy {
		err := observed[code]
		var cerr *client.Error
		if !errors.As(err, &cerr) || cerr.Code != code {
			t.Errorf("%s: client saw %v, want a client.Error with that code", code, err)
			continue
		}
		sentinel := wire.Sentinel(code)
		switch {
		case e.class == store && (sentinel == nil || sentinel != e.is):
			t.Errorf("%s: Sentinel = %v, want %v", code, sentinel, e.is)
		case e.class != store && sentinel != nil:
			t.Errorf("%s: %s code has Sentinel %v, want none", code, e.class, sentinel)
		case e.is != nil && !errors.Is(err, e.is):
			t.Errorf("%s: client error %v is not %v", code, err, e.is)
		case e.is == nil && cerr.Unwrap() != nil:
			t.Errorf("%s: client error unwraps to %v, want nothing", code, cerr.Unwrap())
		}
		if want := e.class == admission || e.retryable; wire.Retryable(code) != want {
			t.Errorf("%s: Retryable = %v, want %v", code, !want, want)
		}
	}
}

// put sends one PUT through a client that does not retry and returns its
// error.
func put(t *testing.T, base string, hc *http.Client) error {
	t.Helper()
	c, err := client.New(client.Options{Endpoints: []string{base}, MaxRetries: -1, HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err = c.Put(ctx, "k", "v")
	return err
}

// storeRefusal answers a client's PUT with what kvserver answers for a store
// error: FromError's status and body.
func storeRefusal(t *testing.T, cause error) error {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		status, werr := wire.FromError(cause)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(werr)
	}))
	defer hs.Close()
	return put(t, hs.URL, nil)
}

// admissionRefusals drives real kvservers into each admission refusal and
// returns what a client saw: overloaded and conn_busy from a server whose
// one in-flight slot is held by a PUT still sending its body, draining from
// a server being shut down.
func admissionRefusals(t *testing.T) map[string]error {
	t.Helper()
	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{
		Shards: 1,
		Log:    rdmaagreement.LogOptions{Cluster: rdmaagreement.Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	// Over TLS, HTTP/2 multiplexes requests on one connection, which the
	// per-connection bound needs. The test server only lends its
	// certificate and a client that trusts it.
	ts := httptest.NewUnstartedServer(nil)
	ts.EnableHTTP2 = true
	ts.StartTLS()
	held := ts.Client()
	other := &http.Client{Transport: held.Transport.(*http.Transport).Clone()}
	tlsConfig := ts.TLS
	ts.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "https://" + ln.Addr().String()
	srv, err := kvserver.New(kvserver.Options{Store: kv, MaxInflight: 1, MaxInflightPerConn: 1})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(tls.NewListener(ln, tlsConfig)) }()

	body, finish := io.Pipe()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/kv/held", body)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan struct{})
	go func() {
		if resp, err := held.Do(req); err == nil {
			resp.Body.Close()
		}
		close(answered)
	}()
	inflight := kv.Registry().Gauge("server_inflight")
	for deadline := time.Now().Add(10 * time.Second); inflight.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held PUT was never admitted")
		}
	}
	observed := map[string]error{
		wire.CodeConnBusy:   put(t, base, held),
		wire.CodeOverloaded: put(t, base, other),
	}
	finish.Close()
	<-answered
	held.CloseIdleConnections() // else Shutdown waits out HTTP/2's GOAWAY grace
	other.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-served

	// A Handler mounted under another server drains too: Shutdown marks it
	// draining and leaves the listener to its owner.
	drained, err := kvserver.New(kvserver.Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(drained.Handler())
	defer hs.Close()
	if err := drained.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	observed[wire.CodeDraining] = put(t, hs.URL, nil)
	return observed
}

// TestCodesAreNamedNotSpelt fails if a non-test Go file of the repository
// spells a code's value as a string literal outside wire.go's declarations:
// callers name the constant, so a code cannot change under a stale
// spelling.
func TestCodesAreNamedNotSpelt(t *testing.T) {
	codes := wireCodes(t)
	root := filepath.Join("..", "..")
	self := filepath.Join(root, "internal", "wire", "wire.go")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				return path != self || !strings.HasPrefix(n.Names[0].Name, "Code")
			case *ast.BasicLit:
				if v, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && codes[v] != "" {
					t.Errorf("%s: spells %q; use wire.%s", fset.Position(n.Pos()), v, codes[v])
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
