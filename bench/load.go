package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement"
	"rdmaagreement/client"
	"rdmaagreement/internal/types"
)

type opKind uint8

const (
	opPut opKind = iota
	opGetLin
	opGetStale
)

// sample is one finished operation. Times are relative to the run's origin
// (the start of warm-up); latency runs from when the op was due, which for a
// closed loop is when it was sent.
type sample struct {
	dueUs uint32
	latNs uint32 // saturates at ~4.29 s, above opDeadline
	kind  opKind
	ok    bool
}

func (s sample) due() time.Duration  { return time.Duration(s.dueUs) * time.Microsecond }
func (s sample) lat() time.Duration  { return time.Duration(s.latNs) }
func (s sample) done() time.Duration { return s.due() + s.lat() }

// keyState is what the audit knows about one key. The lock is held across an
// operation on purpose: it is the "one op in flight per key" gate the audit's
// exact last-value check relies on. The key schedules never contend on it.
type keyState struct {
	mu     sync.Mutex
	issued uint32   // sequence of the last put sent
	acked  uint32   // sequence of the last put acknowledged
	failed []uint32 // puts that errored or timed out: each may still have committed
}

// allowed reports whether a linearizable read (or the final audit) may see
// seq: the last acknowledged put, or one whose outcome the writer never saw.
func (k *keyState) allowed(seq uint32) bool {
	if seq == k.acked {
		return true
	}
	for _, f := range k.failed {
		if f == seq {
			return true
		}
	}
	return false
}

func keyName(i int) string { return "k/" + strconv.Itoa(i) }

// valueOf is the 64-byte value of put number seq on key i: "<i>:<seq>:" and
// filler, so any value read back names the write it came from.
func valueOf(i int, seq uint32) string {
	var b [valueSize]byte
	buf := strconv.AppendInt(b[:0], int64(i), 10)
	buf = append(buf, ':')
	buf = strconv.AppendUint(buf, uint64(seq), 10)
	buf = append(buf, ':')
	for j := len(buf); j < valueSize; j++ {
		b[j] = '.'
	}
	return string(b[:])
}

func parseValue(v string) (key int, seq uint32, ok bool) {
	if len(v) != valueSize {
		return 0, 0, false
	}
	parts := strings.SplitN(v, ":", 3)
	if len(parts) != 3 {
		return 0, 0, false
	}
	k, err1 := strconv.Atoi(parts[0])
	s, err2 := strconv.ParseUint(parts[1], 10, 32)
	return k, uint32(s), err1 == nil && err2 == nil
}

// backend is the surface a workload drives: ShardedKV in-process, or
// client.Client over HTTP. op identifies the request in the trace.
type backend interface {
	put(ctx context.Context, op uint64, key, value string) error
	get(ctx context.Context, op uint64, key string, linearizable bool) (string, bool, error)
}

// storeBackend calls ShardedKV directly, retrying ErrLeaseLost (provably not
// committed) until the deadline, as the network client does.
type storeBackend struct {
	kv *rdmaagreement.ShardedKV
	tr *tracer
}

// retryLeaseLost runs op until it returns anything but ErrLeaseLost, or ctx ends.
func retryLeaseLost(ctx context.Context, op func() error) error {
	for {
		if err := op(); err == nil || !errors.Is(err, rdmaagreement.ErrLeaseLost) || ctx.Err() != nil {
			return err
		}
	}
}

func (b storeBackend) put(ctx context.Context, op uint64, key, value string) error {
	start := time.Now()
	err := retryLeaseLost(ctx, func() error {
		_, _, err := b.kv.Put(ctx, key, value)
		return err
	})
	b.tr.record(spanShardedPut, op, start)
	return err
}

func (b storeBackend) get(ctx context.Context, op uint64, key string, linearizable bool) (v string, found bool, err error) {
	start := time.Now()
	if linearizable {
		err = retryLeaseLost(ctx, func() error {
			v, found, err = b.kv.GetLinearizable(ctx, key)
			return err
		})
	} else {
		v, found, err = b.kv.GetWithContext(ctx, key)
	}
	b.tr.record(spanShardedGet, op, start)
	return v, found, err
}

// clientBackend goes through client.Client, whose own retry policy applies.
type clientBackend struct {
	c  *client.Client
	tr *tracer
}

func (b clientBackend) put(ctx context.Context, op uint64, key, value string) error {
	start := time.Now()
	_, _, err := b.c.Put(withOp(ctx, b.tr, op), key, value)
	b.tr.record(spanClientPut, op, start)
	return err
}

func (b clientBackend) get(ctx context.Context, op uint64, key string, linearizable bool) (v string, found bool, err error) {
	start := time.Now()
	ctx = withOp(ctx, b.tr, op)
	if linearizable {
		v, found, err = b.c.GetLinearizable(ctx, key)
	} else {
		v, found, err = b.c.Get(ctx, key)
	}
	b.tr.record(spanClientGet, op, start)
	return v, found, err
}

// load is the state shared by the clients of one run.
type load struct {
	w        *workload
	seed     uint64
	be       backend
	keys     []keyState
	names    []string // keyName(i), built once: the generator should not allocate per op
	origin   time.Time
	wrong    atomic.Int64 // reads that returned a value the key's history does not allow
	linReads atomic.Int64 // linearizable reads that succeeded, for the served audit
	errMu    sync.Mutex
	errs     map[string]int // failure texts, for the report
}

func newLoad(w *workload, seed uint64, be backend, origin time.Time) *load {
	l := &load{w: w, seed: seed, be: be, origin: origin, keys: make([]keyState, w.numKeys()), errs: make(map[string]int)}
	for i := range l.keys {
		l.names = append(l.names, keyName(i))
	}
	return l
}

// quoted matches the key names inside error texts, which would otherwise
// make every failure its own line of the report.
var quoted = regexp.MustCompile(`"[^"]*"`)

func (l *load) noteError(err error) {
	text := quoted.ReplaceAllString(err.Error(), "<key>")
	l.errMu.Lock()
	l.errs[text]++
	l.errMu.Unlock()
}

// do runs one operation against key i, checks what it returned against the
// key's history, and returns its sample. due is when the op was scheduled.
func (l *load) do(op uint64, kind opKind, i int, due time.Time) sample {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(opDeadline))
	defer cancel()
	ks := &l.keys[i]
	ks.mu.Lock()
	var err error
	switch kind {
	case opPut:
		ks.issued++
		seq := ks.issued
		if err = l.be.put(ctx, op, l.names[i], valueOf(i, seq)); err == nil {
			ks.acked = seq
		} else {
			ks.failed = append(ks.failed, seq)
		}
	default:
		var v string
		var found bool
		v, found, err = l.be.get(ctx, op, l.names[i], kind == opGetLin)
		if err == nil {
			if kind == opGetLin {
				l.linReads.Add(1)
			}
			k, seq, ok := parseValue(v)
			switch {
			case !found || !ok || k != i:
				l.wrong.Add(1)
			case kind == opGetLin && !ks.allowed(seq):
				l.wrong.Add(1)
			case seq > ks.issued: // a stale read may lag, never lead
				l.wrong.Add(1)
			}
		}
	}
	ks.mu.Unlock()
	end := time.Now()
	if err != nil {
		l.noteError(err)
	}
	lat := end.Sub(due)
	if lat > time.Duration(^uint32(0)) {
		lat = time.Duration(^uint32(0))
	}
	return sample{dueUs: uint32(due.Sub(l.origin) / time.Microsecond), latNs: uint32(lat), kind: kind, ok: err == nil}
}

func (l *load) pick(rng *rand.Rand) opKind {
	n := rng.IntN(100)
	switch {
	case n < l.w.mix[0]:
		return opPut
	case n < l.w.mix[0]+l.w.mix[1]:
		return opGetLin
	}
	return opGetStale
}

// closedLoop is client c of clients: it owns keys c, c+clients, ... and sends
// its next op only when the previous one has returned.
func (l *load) closedLoop(c, clients int, until time.Time) []sample {
	rng := rand.New(rand.NewPCG(l.seed, uint64(c)))
	own := (len(l.keys) - c + clients - 1) / clients
	var out []sample
	for n := uint64(0); ; n++ {
		now := time.Now()
		if !now.Before(until) {
			return out
		}
		kind := l.pick(rng)
		out = append(out, l.do(uint64(c)<<40|n, kind, c+clients*rng.IntN(own), now))
	}
}

// openLoop sends ops on a fixed schedule whether or not earlier ones have
// returned. Op n uses key perm[n mod keys], so with 10000 keys two ops share
// a key only 50 s apart, far beyond opDeadline. It returns the
// samples and how late the generator started each op.
func (l *load) openLoop(first, until time.Time) ([]sample, []time.Duration) {
	rng := rand.New(rand.NewPCG(l.seed, 0))
	perm := rng.Perm(len(l.keys))
	interval := time.Duration(float64(time.Second) / openRate)
	var (
		mu      sync.Mutex
		samples []sample
		late    []time.Duration
		wg      sync.WaitGroup
	)
	for n := 0; ; n++ {
		due := first.Add(time.Duration(n) * interval)
		if !due.Before(until) {
			break
		}
		time.Sleep(time.Until(due))
		late = append(late, time.Since(due))
		kind := l.pick(rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := l.do(uint64(n), kind, perm[n%len(perm)], due)
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, late
}

// stall is one injected fault on rdma-failover, times relative to the origin.
type stall struct {
	at     time.Duration // CrashProcess on the lease holder
	bumped time.Duration // the successor's epoch was in force
	holder types.ProcID
}

// stallLoop crashes the current lease holder of the (single) shard at first,
// first+period, ... and revives it reviveAfter after each epoch bump.
func (l *load) stallLoop(kv *rdmaagreement.ShardedKV, first time.Time, period time.Duration, n int) ([]stall, error) {
	c := kv.ShardLog(kv.Shards()[0]).Cluster()
	var out []stall
	for i := 0; i < n; i++ {
		at := first.Add(time.Duration(i) * period)
		time.Sleep(time.Until(at))
		holder, epoch := c.LeaseHolder(), c.LeaseEpoch()
		st := stall{at: time.Since(l.origin), holder: holder}
		c.CrashProcess(holder)
		for c.LeaseEpoch() == epoch {
			if time.Since(at) > period {
				c.ReviveProcess(holder)
				return out, fmt.Errorf("stall %d: no takeover from %s within %s", i, holder, period)
			}
			time.Sleep(time.Millisecond)
		}
		st.bumped = time.Since(l.origin)
		time.Sleep(reviveAfter)
		c.ReviveProcess(holder)
		out = append(out, st)
	}
	return out, nil
}
