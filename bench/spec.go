package main

import (
	"slices"
	"time"

	"rdmaagreement"
)

// Fixed shape of every workload. Topology everywhere is Protected Memory
// Paxos over 3 processes and 3 memories (the library defaults).
const (
	numKeys     = 10000                  // keys k/<i> preloaded during set-up, unless a test asks for fewer
	valueSize   = 64                     // bytes per value
	preloaders  = 32                     // goroutines loading the keys in set-up
	warmUp      = 2 * time.Second        // load applied before the window opens
	opDeadline  = 8 * time.Second        // per-op deadline, client retries included: longer than the longest outage, so no op fails
	sloLimit    = 10 * time.Millisecond  // an op counts as served in time within this of its due time
	numSlices   = 5                      // a window reports the median over this many equal slices
	reviveAfter = 500 * time.Millisecond // rdma-failover: revive this long after the epoch bump
	openRate    = 200.0                  // rdma-failover: ops/s offered on a schedule
	setUps      = 3                      // a run builds and preloads this many times and reports the median
)

// workload is one traffic mix against one store configuration.
type workload struct {
	name string
	why  string
	// served puts the store behind kvserver on loopback and drives it
	// through client.Client; otherwise ShardedKV is called in-process.
	served bool
	shards int
	keys   int // 0 means numKeys
	log    rdmaagreement.LogOptions
	// clients is the closed-loop client count (0 means nproc). openLoop
	// replaces them with a schedule at openRate and adds the stalls.
	clients    int
	openLoop   bool
	stallEvery time.Duration // open loop: distance between stalls
	// mix is the percentage of Put, GetLinearizable and Get.
	mix [3]int
}

// shipped is the log exactly as cmd/kvserver builds it with its flag
// defaults: batch 8, lease 250 ms, default ReplicaCatchUp and SlotTimeout.
func shipped(memLatency, netDelay time.Duration) rdmaagreement.LogOptions {
	return rdmaagreement.LogOptions{
		Cluster: rdmaagreement.Options{
			Processes: 3, Memories: 3,
			MemoryLatency: memLatency, NetworkDelay: netDelay,
			LeaseDuration: 250 * time.Millisecond,
		},
		MaxBatch: 8,
	}
}

var workloads = []workload{
	{
		name: "put-lowload", shards: 1, clients: 2, mix: [3]int{100, 0, 0},
		why: "2 closed-loop writers, zero latency, library defaults: one command per slot, so slot construction, pmpaxos, memsim and netsim are the whole cost and the batcher does nothing",
	},
	{
		name: "put-batched", shards: 1, clients: 32, mix: [3]int{100, 0, 0},
		why: "32 closed-loop writers on the same store: group commit, batch codec, queueing, apply and the kv snapshot dominate, and per-slot cost is divided by cmds_per_slot",
	},
	{
		name: "mixed-served", shards: 2, served: true, mix: [3]int{50, 40, 10}, log: shipped(0, 0),
		why: "the store as cmd/kvserver ships it, over HTTP on loopback, 50% put 40% linearizable get 10% get: the only workload through client, kvserver, wire and ring routing, with reads beside writes",
	},
	{
		name: "rdma-failover", shards: 1, openLoop: true, stallEvery: 6500 * time.Millisecond, mix: [3]int{75, 25, 0}, log: shipped(time.Millisecond, 250*time.Microsecond),
		why: "open loop at 200 ops/s, 1 ms memory and 250 us network delay, then lease-holder stalls: latency is memory round trips, not CPU, and the only faults, so it measures time without service",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec mirrors one entry of BENCHMARK.json; bench_test.go holds the
// two equal. Bound is zero for per-layer metrics, which have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics the driver bounds: each is emitted, non-zero, by
// every workload from the untraced run. Timings that are CPU time in
// disguise carry the largest bound the driver allows: on a shared 2-vCPU box
// identical work costs 10-20% more or less from one minute to the next.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"put_p50_ms", "ms", "lower", 0.25},
	{"put_p99_ms", "ms", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.01},
	{"slo_ok_frac", "frac", "higher", 0.10},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// unbounded are end-to-end metrics that not every workload has (no reads on
// the put workloads, no stalls outside rdma-failover), so the driver cannot
// bound them; BENCHMARK.json lists them first among the per-layer metrics
// and they read 0 where they do not apply.
var unbounded = []metricSpec{
	{"get_p50_ms", "ms", "lower", 0},
	{"get_p99_ms", "ms", "lower", 0},
	{"unavail_p50_ms", "ms", "lower", 0},
}

// layers are the single-layer diagnostics of the traced run. A layer a
// workload does not run reports 0.
var layers = []metricSpec{
	{"client.self_p50_us", "us", "lower", 0},
	{"client.attempts_per_op", "count", "lower", 0},

	{"kvserver.handler_p50_us", "us", "lower", 0},
	{"kvserver.handler_p99_us", "us", "lower", 0},
	{"kvserver.self_p50_us", "us", "lower", 0},
	{"kvserver.shed_per_op", "count", "lower", 0},
	{"kvserver.handler_probe_us", "us", "lower", 0},

	{"wire.put_codec_ns", "ns", "lower", 0},
	{"wire.put_codec_allocs", "count", "lower", 0},
	{"wire.error_codec_ns", "ns", "lower", 0},

	{"sharded.put_p50_us", "us", "lower", 0},
	{"sharded.self_p50_us", "us", "lower", 0},
	{"sharded.forwarded_per_op", "count", "lower", 0},
	{"shard.lookup_ns", "ns", "lower", 0},

	{"smr.batch_wait_p50_us", "us", "lower", 0},
	{"smr.agreement_p50_us", "us", "lower", 0},
	{"smr.agreement_p99_us", "us", "lower", 0},
	{"smr.commit_wait_p50_us", "us", "lower", 0},
	{"smr.apply_p50_us", "us", "lower", 0},
	{"smr.e2e_p50_us", "us", "lower", 0},
	{"smr.e2e_p99_us", "us", "lower", 0},
	{"smr.cmds_per_slot", "count", "higher", 0},
	{"smr.batch_size_mean", "count", "higher", 0},
	{"smr.queue_depth_peak", "count", "lower", 0},
	{"smr.inflight_slots_peak", "count", "higher", 0},
	{"smr.reorder_depth_peak", "count", "lower", 0},
	{"smr.snapshots_per_kop", "count", "lower", 0},
	{"smr.recovered_slots", "count", "lower", 0},
	{"smr.pipeline_backoffs", "count", "lower", 0},
	{"smr.residue_p50_us", "us", "lower", 0},
	{"smr.propose_nop_us", "us", "lower", 0},
	{"smr.propose_nop_allocs", "count", "lower", 0},
	{"smr.lease_reads", "count", "higher", 0},
	{"smr.barrier_reads", "count", "lower", 0},
	{"smr.lease_read_share", "frac", "higher", 0},

	{"core.instance_setup_us", "us", "lower", 0},
	{"core.instance_setup_allocs", "count", "lower", 0},
	{"core.decision_us", "us", "lower", 0},
	{"core.decision_allocs", "count", "lower", 0},
	{"core.decision_bytes", "B", "lower", 0},
	{"core.peak_instances", "count", "lower", 0},
	{"core.live_regions_end", "count", "lower", 0},

	{"pmpaxos.decision_delays", "count", "lower", 0},
	{"pmpaxos.mem_reads_per_slot", "count", "lower", 0},
	{"pmpaxos.mem_writes_per_slot", "count", "lower", 0},
	{"pmpaxos.perm_changes_per_slot", "count", "lower", 0},
	{"pmpaxos.naks_per_slot", "count", "lower", 0},
	{"pmpaxos.msgs_per_slot", "count", "lower", 0},
	{"pmpaxos.put_over_memlat", "ratio", "lower", 0},

	{"memsim.write_ns", "ns", "lower", 0},
	{"memsim.read_ns", "ns", "lower", 0},
	{"memsim.chperm_ns", "ns", "lower", 0},
	{"memsim.write_allocs", "count", "lower", 0},
	{"memsim.read_allocs", "count", "lower", 0},
	{"memsim.timer_overhead_us", "us", "lower", 0},

	{"netsim.send_deliver_ns", "ns", "lower", 0},
	{"netsim.send_allocs", "count", "lower", 0},
	{"netsim.dropped_per_op", "count", "lower", 0},

	{"omega.takeovers", "count", "lower", 0},
	{"omega.detect_p50_ms", "ms", "lower", 0},
	{"omega.first_commit_p50_ms", "ms", "lower", 0},
	{"omega.epoch_end", "count", "lower", 0},

	{"metrics.record_ns", "ns", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},

	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.gen_late_p99_ms", "ms", "lower", 0},
}

// perLayer is BENCHMARK.json's per_layer list: what a traced run emits.
var perLayer = append(slices.Clone(unbounded), layers...)
