package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A request's spans share its op id; the benchmark records them
// around its own calls into each layer, so below ShardedKV there are none.
const (
	spanClientPut uint8 = iota
	spanClientGet
	spanHandlerPut
	spanHandlerGet
	spanShardedPut
	spanShardedGet
)

var spanNames = [...]string{"client.put", "client.get", "kvserver.put", "kvserver.get", "sharded.put", "sharded.get"}

// spanParent is the span that caused each span, by name; roots have none.
var spanParent = [...]string{"", "", "client.put", "client.get", "", ""}

type span struct {
	op    uint64
	start int64 // ns since the run's origin
	dur   int64 // ns
	name  uint8
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run. Lanes keep recorders off one lock.
type tracer struct {
	origin time.Time
	from   atomic.Int64 // ns since origin; spans that start earlier (set-up, warm-up) are dropped
	lanes  [64]struct {
		mu    sync.Mutex
		spans []span
	}
	attempts atomic.Int64 // HTTP round trips, by the counting transport
}

func newTracer(origin time.Time) *tracer {
	t := &tracer{origin: origin}
	t.close()
	return t
}

// openAt starts recording: spans that start at or after open are kept.
func (t *tracer) openAt(open time.Time) {
	if t != nil {
		t.from.Store(int64(open.Sub(t.origin)))
	}
}

// close stops recording.
func (t *tracer) close() {
	if t != nil {
		t.from.Store(math.MaxInt64)
	}
}

func (t *tracer) record(name uint8, op uint64, start time.Time) {
	if t == nil || int64(start.Sub(t.origin)) < t.from.Load() {
		return
	}
	end := time.Now()
	lane := &t.lanes[op%uint64(len(t.lanes))]
	lane.mu.Lock()
	lane.spans = append(lane.spans, span{op: op, start: int64(start.Sub(t.origin)), dur: int64(end.Sub(start)), name: name})
	lane.mu.Unlock()
}

// all returns every span, ordered by start.
func (t *tracer) all() []span {
	var out []span
	for i := range t.lanes {
		out = append(out, t.lanes[i].spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

type opKey struct{}

const opHeader = "X-Bench-Op"

// withOp attaches the op id to the request context when tracing, for the
// transport to copy into a header the server-side middleware reads.
func withOp(ctx context.Context, t *tracer, op uint64) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, op)
}

// transport counts attempts and forwards the op id; it wraps the real one
// through client.Options.HTTPClient in the traced run.
type transport struct {
	t    *tracer
	next http.RoundTripper
}

func (rt transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.t.attempts.Add(1)
	if op, ok := req.Context().Value(opKey{}).(uint64); ok {
		req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	return rt.next.RoundTrip(req)
}

// middleware times the whole handler, as the server side of the op.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		op, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			return // not a traced data request (ring, stats)
		}
		name := spanHandlerGet
		if r.Method == http.MethodPut {
			name = spanHandlerPut
		}
		t.record(name, op, start)
	})
}

// maxSpansWritten caps the span file: spans are kept whole per op (every
// k-th op id is written), so the file stays a few MB at 25k ops/s.
const maxSpansWritten = 100000

type spanJSON struct {
	Op      uint64  `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

func writeSpans(path, workload string, spans []span) error {
	every := uint64(len(spans)/maxSpansWritten + 1)
	out := struct {
		Workload string     `json:"workload"`
		Recorded int        `json:"spans_recorded"`
		EveryNth uint64     `json:"written_every_nth_op"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Recorded: len(spans), EveryNth: every}
	for _, s := range spans {
		if (s.op&(1<<40-1))%every != 0 {
			continue
		}
		out.Spans = append(out.Spans, spanJSON{
			Op: s.op, Name: spanNames[s.name], Parent: spanParent[s.name],
			StartUs: float64(s.start) / 1e3, DurUs: float64(s.dur) / 1e3,
		})
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
