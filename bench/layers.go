package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"rdmaagreement"
	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/netsim"
)

// The histograms of internal/smr, by the names it records under: the stages
// of a command's life, and the commands per cut batch (in 1 ns units).
var stageHistograms = map[string]string{
	"batch_size":  "smr_batch_size",
	"batch_wait":  "smr_batch_wait_seconds",
	"agreement":   "smr_agreement_seconds",
	"commit_wait": "smr_commit_wait_seconds",
	"apply":       "smr_apply_seconds",
	"e2e":         "smr_e2e_seconds",
}

// counters is every public counter the per-layer metrics are deltas of.
type counters struct {
	stats     rdmaagreement.ShardedStats
	m         rdmaagreement.LogMetrics
	stages    map[string]metrics.HistogramSnapshot
	slots     uint64
	snapshots int
	mem       memsim.OpCounterSnapshot
	net       netsim.CounterSnapshot
	shed      uint64
	regions   int
}

func readCounters(kv *rdmaagreement.ShardedKV) counters {
	reg := kv.Registry()
	c := counters{stats: kv.Stats(), m: kv.Metrics(), stages: make(map[string]metrics.HistogramSnapshot)}
	for stage, name := range stageHistograms {
		c.stages[stage] = reg.Histogram(name).Snapshot()
	}
	for _, name := range []string{"server_shed_overloaded", "server_shed_conn_busy", "server_shed_draining"} {
		c.shed += reg.Counter(name).Load()
	}
	for _, name := range kv.Shards() {
		l := kv.ShardLog(name)
		cl := l.Cluster()
		c.slots += l.Slots()
		c.snapshots += l.Snapshots()
		ops := cl.Pool.TotalOps()
		c.mem.Reads += ops.Reads
		c.mem.Writes += ops.Writes
		c.mem.PermChanges += ops.PermChanges
		c.mem.Naks += ops.Naks
		n := cl.Network.Counters().Snapshot()
		c.net.Sent += n.Sent
		c.net.Dropped += n.Dropped
		c.regions += cl.LiveRegions()
	}
	return c
}

// peaks are levels sampled at 1 kHz inside the window: the registry's own
// high-water marks cannot be reset after the 32-way preload.
type peaks struct {
	queue, inflight, reorder, instances int64
	goroutines                          int
}

// layerProbe reads the counters when the window opens and samples the
// levels until it is stopped, in the traced run only.
type layerProbe struct {
	kv       *rdmaagreement.ShardedKV
	tr       *tracer
	before   counters // at window open
	steady   counters // at the end of the sliced phase
	attempts int64
	peaks    peaks
	quit     chan struct{}
	wg       sync.WaitGroup
}

func startLayerProbe(kv *rdmaagreement.ShardedKV, tr *tracer) *layerProbe {
	p := &layerProbe{kv: kv, tr: tr, before: readCounters(kv), attempts: tr.attempts.Load(), quit: make(chan struct{})}
	reg := kv.Registry()
	queue, inflight, reorder := reg.Gauge("smr_queue_depth"), reg.Gauge("smr_inflight_slots"), reg.Gauge("smr_reorder_depth")
	var logs []*rdmaagreement.Log
	for _, name := range kv.Shards() {
		logs = append(logs, kv.ShardLog(name))
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			pk := &p.peaks
			pk.queue = max(pk.queue, queue.Load())
			pk.inflight = max(pk.inflight, inflight.Load())
			pk.reorder = max(pk.reorder, reorder.Load())
			pk.goroutines = max(pk.goroutines, runtime.NumGoroutine())
			live := 0
			for _, l := range logs {
				live += l.Cluster().LiveInstances()
			}
			pk.instances = max(pk.instances, int64(live))
		}
	}()
	return p
}

// endSteady marks the end of the sliced phase. Timings, per-slot and per-op
// ratios are taken up to here, so the stalls that follow on rdma-failover
// do not drown the steady state; fault counts cover the whole window.
func (p *layerProbe) endSteady() { p.steady = readCounters(p.kv) }

// stop ends the sampling and returns the counter-derived metrics; ops is the
// number of operations committed in the sliced phase and in the whole window.
// A ratio over an empty base (no slot, no read) is NaN here; runOnce reports
// it as 0, the value of every layer metric that does not apply.
func (p *layerProbe) stop(steadyOps, allOps float64) map[string]float64 {
	close(p.quit)
	p.wg.Wait()
	end, a, b := readCounters(p.kv), p.steady, p.before
	slots := float64(a.slots - b.slots)
	perSlot := func(n int64) float64 { return ratio(float64(n), slots) }
	perOp := func(n float64) float64 { return ratio(n, steadyOps) }
	batches := histDelta(a.stages["batch_size"], b.stages["batch_size"])
	leaseReads, barrierReads := float64(a.stats.LeaseReads-b.stats.LeaseReads), float64(a.stats.BarrierReads-b.stats.BarrierReads)
	out := map[string]float64{
		"client.attempts_per_op":        perOp(float64(p.tr.attempts.Load() - p.attempts)),
		"kvserver.shed_per_op":          perOp(float64(a.shed - b.shed)),
		"sharded.forwarded_per_op":      perOp(float64(a.stats.Forwarded - b.stats.Forwarded)),
		"smr.cmds_per_slot":             perSlot(int64(a.m.Committed - b.m.Committed)),
		"smr.batch_size_mean":           ratio(float64(batches.Sum), float64(batches.Count)),
		"smr.queue_depth_peak":          float64(p.peaks.queue),
		"smr.inflight_slots_peak":       float64(p.peaks.inflight),
		"smr.reorder_depth_peak":        float64(p.peaks.reorder),
		"smr.snapshots_per_kop":         perOp(1000 * float64(a.snapshots-b.snapshots)),
		"smr.recovered_slots":           float64(end.stats.Recovered - b.stats.Recovered),
		"smr.pipeline_backoffs":         float64(end.stats.PipelineBackoffs - b.stats.PipelineBackoffs),
		"smr.lease_reads":               leaseReads,
		"smr.barrier_reads":             barrierReads,
		"smr.lease_read_share":          ratio(leaseReads, leaseReads+barrierReads),
		"core.peak_instances":           float64(p.peaks.instances),
		"core.live_regions_end":         float64(end.regions),
		"pmpaxos.mem_reads_per_slot":    perSlot(a.mem.Reads - b.mem.Reads),
		"pmpaxos.mem_writes_per_slot":   perSlot(a.mem.Writes - b.mem.Writes),
		"pmpaxos.perm_changes_per_slot": perSlot(a.mem.PermChanges - b.mem.PermChanges),
		"pmpaxos.naks_per_slot":         perSlot(a.mem.Naks - b.mem.Naks),
		"pmpaxos.msgs_per_slot":         perSlot(a.net.Sent - b.net.Sent),
		"netsim.dropped_per_op":         ratio(float64(end.net.Dropped-b.net.Dropped), allOps),
		"omega.takeovers":               float64(end.stats.Takeovers - b.stats.Takeovers),
		"omega.epoch_end":               float64(end.stats.Epoch),
		"runtime.goroutines_peak":       float64(p.peaks.goroutines),
	}
	for _, stage := range []string{"batch_wait", "agreement", "commit_wait", "apply", "e2e"} {
		d := histDelta(a.stages[stage], b.stages[stage])
		out["smr."+stage+"_p50_us"] = us(d.Quantile(0.50))
		if stage == "agreement" || stage == "e2e" {
			out["smr."+stage+"_p99_us"] = us(d.Quantile(0.99))
		}
	}
	return out
}

// histDelta is the histogram of what was observed between two snapshots.
// Max cannot be windowed and stays the later snapshot's.
func histDelta(after, before metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{Sum: after.Sum - before.Sum, Max: after.Max, Bounds: after.Bounds, Counts: make([]uint64, len(after.Counts))}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
		d.Count += d.Counts[i]
	}
	return d
}

// spanMetrics derives the layer timings from the spans that started in the
// sliced phase (before until), so that like the stage histograms they leave
// the stalls out. The store call under a handler or a ShardedKV span has no
// span of its own; the log's enqueue-to-resolve p50 stands in for it.
func spanMetrics(spans []span, until time.Duration, out map[string]float64) {
	byName := make(map[uint8][]float64)
	clientDur := make(map[uint64]int64)
	spans = spans[:sort.Search(len(spans), func(i int) bool { return spans[i].start >= int64(until) })]
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], float64(s.dur)/1e3)
		if s.name == spanClientPut || s.name == spanClientGet {
			clientDur[s.op] = s.dur
		}
	}
	var clientSelf []float64
	for _, s := range spans {
		if s.name != spanHandlerPut && s.name != spanHandlerGet {
			continue
		}
		if d, ok := clientDur[s.op]; ok {
			clientSelf = append(clientSelf, float64(d-s.dur)/1e3)
		}
	}
	p := func(xs []float64, q float64) float64 {
		sort.Float64s(xs)
		return percentile(xs, q)
	}
	e2e := out["smr.e2e_p50_us"]
	if len(clientSelf) > 0 {
		out["client.self_p50_us"] = p(clientSelf, 50)
	}
	if h := byName[spanHandlerPut]; len(h) > 0 {
		out["kvserver.handler_p50_us"] = p(h, 50)
		out["kvserver.handler_p99_us"] = p(h, 99)
		out["kvserver.self_p50_us"] = out["kvserver.handler_p50_us"] - e2e
	}
	if sp := byName[spanShardedPut]; len(sp) > 0 {
		out["sharded.put_p50_us"] = p(sp, 50)
		out["sharded.self_p50_us"] = out["sharded.put_p50_us"] - e2e
		out["smr.residue_p50_us"] = out["sharded.put_p50_us"] - out["smr.batch_wait_p50_us"] -
			out["smr.agreement_p50_us"] - out["smr.commit_wait_p50_us"] - out["smr.apply_p50_us"]
	}
}
