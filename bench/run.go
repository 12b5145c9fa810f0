package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"rdmaagreement"
	"rdmaagreement/client"
	"rdmaagreement/internal/wire"
	"rdmaagreement/kvserver"
)

// env is one built store with whatever stands in front of it.
type env struct {
	kv    *rdmaagreement.ShardedKV
	be    backend
	cl    *client.Client // served only
	close func()
}

// storeKey is the key ShardedKV sees for key i: the served path namespaces
// it under the default tenant.
func (w *workload) storeKey(i int) string {
	if w.served {
		return wire.TenantKey("", keyName(i))
	}
	return keyName(i)
}

// build constructs the store (and for a served workload the listener, the
// server and the client), then preloads every key with its sequence-0 value
// straight into the store.
func build(w *workload, tr *tracer) (*env, error) {
	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{Shards: w.shards, Log: w.log})
	if err != nil {
		return nil, fmt.Errorf("build store: %w", err)
	}
	e := &env{kv: kv, be: storeBackend{kv: kv, tr: tr}, close: kv.Close}
	if w.served {
		if err := e.serve(tr); err != nil {
			kv.Close()
			return nil, err
		}
	}
	if err := preload(w, kv); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// serve puts the store behind kvserver on a loopback port and points a
// client at it whose transport is capped at nproc connections. Untraced, the
// server is exactly kvserver.Serve; traced, the same handler is wrapped in
// the timing middleware (Serve offers no hook for it) and the client's
// transport counts attempts.
func (e *env) serve(tr *tracer) error {
	srv, err := kvserver.New(kvserver.Options{Store: e.kv})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	conns := runtime.GOMAXPROCS(0)
	base := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 90 * time.Second}
	hc := &http.Client{Transport: base}
	served := make(chan error, 1)
	shutdown := srv.Shutdown
	if tr == nil {
		go func() { served <- srv.Serve(ln) }()
	} else {
		hs := &http.Server{Handler: tr.middleware(srv.Handler())}
		shutdown = hs.Shutdown
		go func() { served <- hs.Serve(ln) }()
		hc.Transport = transport{t: tr, next: base}
	}
	cl, err := client.New(client.Options{Endpoints: []string{"http://" + ln.Addr().String()}, HTTPClient: hc})
	if err != nil {
		return err
	}
	e.cl, e.be = cl, clientBackend{c: cl, tr: tr}
	kv := e.kv
	e.close = func() {
		base.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = shutdown(ctx) // on timeout the store's Close below still ends every request
		<-served
		kv.Close()
	}
	return nil
}

func (w *workload) numKeys() int {
	if w.keys > 0 {
		return w.keys
	}
	return numKeys
}

func preload(w *workload, kv *rdmaagreement.ShardedKV) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, preloaders)
	for p := 0; p < preloaders; p++ {
		go func() {
			for i := p; i < w.numKeys(); i += preloaders {
				if _, _, err := kv.Put(ctx, w.storeKey(i), valueOf(i, 0)); err != nil {
					errs <- fmt.Errorf("preload %s: %w", keyName(i), err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for p := 0; p < preloaders; p++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runConfig is one invocation: which seed, how long the window, traced or not.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string    // where a traced run writes its span file; empty writes none
	start   time.Time // process start for the first run, else when this run began
	// warmUp and setUps are the constants of spec.go everywhere but in the
	// smoke test.
	warmUp time.Duration
	setUps int
}

// result is everything one run reports.
type result struct {
	Workload  string             `json:"workload"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"` // traced runs only
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Findings  []string           `json:"findings,omitempty"` // audit failures, then op error texts
}

// window is the measured part of a run. For rdma-failover the slices cover
// only the steady phase and the stalls follow it; otherwise the slices are
// the whole window. Times are since the run's origin.
type window struct {
	open, end time.Duration
	cuts      []reading // numSlices+1 readings at the slice boundaries
	last      reading   // when the window has ended
	stalls    []stall
	late      []time.Duration // open loop: how late the generator sent each op
}

// layout splits seconds into the sliced phase and the stalls that follow.
// Stalls take at most four fifths of the window and there are at most five:
// at 45 s and a 7 s period that is 10 s steady and 5 stalls.
func (w *workload) layout(seconds float64) (sliced time.Duration, stalls int) {
	total := time.Duration(seconds * float64(time.Second))
	if !w.openLoop {
		return total, 0
	}
	stalls = min(5, int(float64(total)*0.8/float64(w.stallEvery)))
	return total - time.Duration(stalls)*w.stallEvery, stalls
}

// runOnce sets the workload up, applies its load for warm-up plus the window,
// audits the store and tears it down.
func runOnce(w *workload, cfg runConfig) (*result, error) {
	origin := time.Now()
	var tr *tracer
	if cfg.traced {
		tr = newTracer(origin)
	}

	// Set-up, several times over so that its median is steady; the last
	// build is the one measured.
	var e *env
	builds := make([]float64, 0, cfg.setUps)
	for i := 0; i < cfg.setUps; i++ {
		t0 := time.Now()
		var err error
		if e, err = build(w, tr); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		if i < cfg.setUps-1 {
			e.close()
		}
	}
	defer e.close()
	sort.Float64s(builds)
	fixed := origin.Sub(cfg.start).Seconds() + cfg.warmUp.Seconds()

	// Warm-up and window are one continuous stretch of load; samples and
	// spans from before the window opens are dropped afterwards.
	l := newLoad(w, cfg.seed, e.be, origin)
	sliced, nStalls := w.layout(cfg.seconds)
	warmStart := time.Now()
	open := warmStart.Add(cfg.warmUp)
	end := open.Add(sliced + time.Duration(nStalls)*w.stallEvery)
	tr.openAt(open)
	win := window{open: open.Sub(origin), end: end.Sub(origin)}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		samples  []sample
		stallErr error
	)
	if w.openLoop {
		wg.Add(2)
		go func() {
			defer wg.Done()
			samples, win.late = l.openLoop(warmStart, end)
		}()
		go func() {
			defer wg.Done()
			win.stalls, stallErr = l.stallLoop(e.kv, open.Add(sliced), w.stallEvery, nStalls)
		}()
	} else {
		clients := w.clients
		if clients == 0 {
			clients = runtime.GOMAXPROCS(0)
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := l.closedLoop(c, clients, end)
				mu.Lock()
				samples = append(samples, got...)
				mu.Unlock()
			}()
		}
	}

	var probe *layerProbe
	for i := 0; i <= numSlices; i++ {
		time.Sleep(time.Until(open.Add(sliced * time.Duration(i) / numSlices)))
		win.cuts = append(win.cuts, takeReading(origin))
		if cfg.traced && i == 0 {
			probe = startLayerProbe(e.kv, tr)
		}
		if cfg.traced && i == numSlices {
			probe.endSteady()
		}
	}
	wg.Wait()
	tr.close() // the audit's reads are not part of the trace
	if stallErr != nil {
		return nil, stallErr
	}
	win.last = takeReading(origin)

	res := &result{Workload: w.name, EndToEnd: make(map[string]stat)}
	res.EndToEnd["setup_s"] = stat{
		Value: fixed + percentile(builds, 50), Min: fixed + builds[0], Max: fixed + builds[len(builds)-1], N: len(builds),
	}
	steadyOps, putDone := endToEndMetrics(res, samples, win)
	if probe != nil {
		res.PerLayer = probe.stop(steadyOps, float64(res.Attempted-res.Failed))
		res.PerLayer["runtime.gc_cycles"] = float64(win.last.gcs - win.cuts[0].gcs)
		res.PerLayer["runtime.gc_pause_total_ms"] = ms(win.last.gcPause - win.cuts[0].gcPause)
		res.PerLayer["bench.gen_late_p99_ms"] = percentile(sortedMS(win.late), 99)
		res.PerLayer["bench.trace_overhead_frac"] = 1 - res.EndToEnd["ops_per_s"].Value/warmRate(samples, win)
		if lat := w.log.Cluster.MemoryLatency; lat > 0 {
			res.PerLayer["pmpaxos.put_over_memlat"] = res.EndToEnd["put_p50_ms"].Value / ms(lat)
		}
		stallMetrics(res.PerLayer, putDone, win)
		spans := tr.all()
		spanMetrics(spans, win.cuts[numSlices].at, res.PerLayer)
		if cfg.outDir != "" {
			if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name, spans); err != nil {
				return nil, err
			}
		}
	}
	for name, v := range res.PerLayer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.PerLayer[name] = 0 // a ratio over an empty base: the layer did not run
		}
	}
	samples, putDone = nil, nil // the load generator's own buffers are not the store's memory
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := settle(ctx, e.kv); err != nil {
		return nil, err
	}
	res.EndToEnd["heap_live_mb"] = single(heapLiveMB(), 1)

	if n := l.wrong.Load(); n > 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("%d reads returned a value their key's history does not allow", n))
	}
	res.Findings = append(res.Findings, audit(w, e, l)...)
	res.Correct = len(res.Findings) == 0
	for text, n := range l.errs {
		res.Findings = append(res.Findings, fmt.Sprintf("%d ops failed: %s", n, text))
	}
	return res, nil
}

// endToEndMetrics fills the client-observed metrics from the window's
// samples — per slice, then the median over slices — and returns how many ops
// committed inside the slices and the sorted completion times of the window's
// successful puts.
func endToEndMetrics(res *result, samples []sample, win window) (float64, []time.Duration) {
	cuts := win.cuts
	type sliceAcc struct {
		ok       float64
		put, get []float64 // ms, successful ops
	}
	acc := make([]sliceAcc, numSlices)
	var putDone []time.Duration
	sloMiss, inSlices := 0, 0
	for _, s := range samples {
		if s.due() < win.open || s.due() >= win.end {
			continue
		}
		res.Attempted++
		if !s.ok || s.lat() > sloLimit {
			sloMiss++
		}
		if !s.ok {
			res.Failed++
			continue
		}
		if s.kind == opPut {
			putDone = append(putDone, s.done())
		}
		j := sort.Search(len(cuts), func(i int) bool { return cuts[i].at >= s.done() }) - 1
		if j < 0 || j >= numSlices {
			continue
		}
		inSlices++
		acc[j].ok++
		switch s.kind {
		case opPut:
			acc[j].put = append(acc[j].put, ms(s.lat()))
		case opGetLin:
			acc[j].get = append(acc[j].get, ms(s.lat()))
		}
	}
	slices.Sort(putDone)

	per := func(n int, f func(j int) float64) stat {
		vals := make([]float64, numSlices)
		for j := range vals {
			vals[j] = f(j)
		}
		return medianOf(vals, n)
	}
	// A percentile is taken per slice only where every slice has ten samples
	// beyond it; thinner slices (the 200 ops/s steady phase) are pooled into
	// one value.
	pct := func(pick func(*sliceAcc) []float64, p float64) stat {
		var pooled []float64
		thinnest := math.MaxInt
		for j := range acc {
			pooled = append(pooled, pick(&acc[j])...)
			thinnest = min(thinnest, len(pick(&acc[j])))
		}
		if float64(thinnest)*(1-p/100) < 10 {
			sort.Float64s(pooled)
			return single(percentile(pooled, p), len(pooled))
		}
		return per(len(pooled), func(j int) float64 { return percentile(sortedCopy(pick(&acc[j])), p) })
	}
	// Costs per op. With stalls the steady slices hold too few ops (220 each)
	// for a slice's CPU time to mean much: the whole window is one sample.
	cost := func(delta func(from, to reading) float64) stat {
		if ops := res.Attempted - res.Failed; len(win.stalls) > 0 {
			return single(ratio(delta(cuts[0], win.last), float64(ops)), ops)
		}
		return per(inSlices, func(j int) float64 { return ratio(delta(cuts[j], cuts[j+1]), acc[j].ok) })
	}
	puts := func(a *sliceAcc) []float64 { return a.put }
	gets := func(a *sliceAcc) []float64 { return a.get }
	m := res.EndToEnd
	m["ops_per_s"] = per(inSlices, func(j int) float64 { return acc[j].ok / (cuts[j+1].at - cuts[j].at).Seconds() })
	m["put_p50_ms"], m["put_p99_ms"] = pct(puts, 50), pct(puts, 99)
	m["get_p50_ms"], m["get_p99_ms"] = pct(gets, 50), pct(gets, 99)
	m["allocs_per_op"] = cost(func(from, to reading) float64 { return float64(to.mallocs - from.mallocs) })
	m["alloc_bytes_per_op"] = cost(func(from, to reading) float64 { return float64(to.bytes - from.bytes) })
	m["cpu_us_per_op"] = cost(func(from, to reading) float64 { return us(to.cpu - from.cpu) })
	m["ok_frac"] = single(1-float64(res.Failed)/float64(res.Attempted), res.Attempted)
	m["slo_ok_frac"] = single(1-float64(sloMiss)/float64(res.Attempted), res.Attempted)

	// Time without service: the longest gap between consecutive successful
	// puts, per stall, or per slice when there are no stalls. Reads do not
	// count: the successor serves them from its lease long before it can
	// commit a write.
	var gaps []float64
	for i := range win.stalls {
		gap, _ := longestGap(putDone, win.stalls[i].at, win.stallEnd(i))
		gaps = append(gaps, ms(gap))
	}
	if len(win.stalls) == 0 {
		for j := 0; j < numSlices; j++ {
			gap, _ := longestGap(putDone, cuts[j].at, cuts[j+1].at)
			gaps = append(gaps, ms(gap))
		}
	}
	m["unavail_p50_ms"] = medianOf(gaps, len(putDone))
	return float64(inSlices), putDone
}

// warmRate is the successful ops per second over the last second of warm-up,
// which a traced run applies untraced: the reference for its own overhead.
func warmRate(samples []sample, win window) float64 {
	n := 0
	for _, s := range samples {
		if s.ok && s.done() >= win.open-time.Second && s.done() < win.open {
			n++
		}
	}
	return float64(n)
}

// stallEnd is where stall i's stretch of the window ends: at the next stall,
// or with the window.
func (win window) stallEnd(i int) time.Duration {
	if i+1 < len(win.stalls) {
		return win.stalls[i+1].at
	}
	return win.end
}

// stallMetrics splits each outage into detection (stall to epoch bump) and
// the wait from there to the put that ends the outage.
func stallMetrics(out map[string]float64, putDone []time.Duration, win window) {
	var detect, first []float64
	for i, st := range win.stalls {
		detect = append(detect, ms(st.bumped-st.at))
		_, resumed := longestGap(putDone, st.at, win.stallEnd(i))
		first = append(first, ms(resumed-st.bumped))
	}
	out["omega.detect_p50_ms"] = percentile(sortedCopy(detect), 50)
	out["omega.first_commit_p50_ms"] = percentile(sortedCopy(first), 50)
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// longestGap is the longest stretch of [from, to) without a successful
// completion, and when it ended; done is sorted.
func longestGap(done []time.Duration, from, to time.Duration) (gap, end time.Duration) {
	prev := from
	i := sort.Search(len(done), func(i int) bool { return done[i] >= from })
	for ; i <= len(done); i++ {
		next := to
		if i < len(done) && done[i] < to {
			next = done[i]
		}
		if next-prev > gap {
			gap, end = next-prev, next
		}
		if next == to {
			break
		}
		prev = next
	}
	return gap, end
}
