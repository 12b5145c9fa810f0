package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"rdmaagreement"
)

// audit checks the quiesced store against what the clients were told, and
// returns what it found wrong:
//   - no log halted;
//   - every key reads back, linearizably and through the workload's own
//     path, as its writer's last acknowledged value (or a put whose outcome
//     the writer never learned) — no acknowledged write lost;
//   - every replica's local view has converged (settle ran first) to that
//     same value;
//   - nothing was forwarded (no rebalance ran);
//   - served: /v1/stats agrees with the store and with the client's count
//     of linearizable reads.
func audit(w *workload, e *env, l *load) []string {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var findings []string
	bad := func(format string, args ...any) {
		if len(findings) < 20 {
			findings = append(findings, fmt.Sprintf(format, args...))
		}
	}

	for _, name := range e.kv.Shards() {
		if _, err := e.kv.ShardLog(name).Barrier(ctx); err != nil {
			bad("shard %s does not commit: %v", name, err)
		}
	}

	final := make([]string, len(l.keys))
	for i := range l.keys {
		v, found, err := l.be.get(ctx, 0, l.names[i], true)
		if err != nil {
			bad("audit read %s: %v", l.names[i], err)
			continue
		}
		l.linReads.Add(1)
		k, seq, ok := parseValue(v)
		if ks := &l.keys[i]; !found || !ok || k != i || !ks.allowed(seq) {
			bad("%s reads %q, last acknowledged put was %d (unacknowledged: %v)", l.names[i], v, ks.acked, ks.failed)
		}
		final[i] = v
	}

	for i := range final {
		key := w.storeKey(i)
		log := e.kv.ShardLog(e.kv.Shard(key))
		for _, p := range log.Cluster().Procs {
			resp, err := log.StaleRead(p, []byte(key))
			if err != nil {
				bad("replica %s read %s: %v", p, l.names[i], err)
				continue
			}
			if v, _, err := rdmaagreement.DecodeKVResult(resp); err != nil || v != final[i] {
				bad("replica %s holds %q for %s, the store answers %q", p, v, l.names[i], final[i])
			}
		}
	}

	stats := e.kv.Stats()
	if stats.Forwarded != 0 {
		bad("%d operations were forwarded, none expected", stats.Forwarded)
	}
	if e.cl != nil {
		served, err := e.cl.Stats(ctx)
		switch {
		case err != nil:
			bad("/v1/stats: %v", err)
		case served.ShardedStats != stats:
			bad("/v1/stats %+v disagrees with the store %+v", served.ShardedStats, stats)
		case served.LeaseReads+served.BarrierReads != uint64(l.linReads.Load()):
			bad("/v1/stats counts %d linearizable reads, the client completed %d", served.LeaseReads+served.BarrierReads, l.linReads.Load())
		}
	}
	return findings
}

// settle brings every shard to the same point of its snapshot cycle — just
// after a snapshot, which also restores any replica view that fell behind
// while stalled (a lagging view catches up only from a snapshot) — and waits
// until every view has applied its whole log. It overwrites a fixed set of
// filler keys, so the store's state does not grow. Retained memory is read
// here: at a random point of the cycle it would swing by a whole interval of
// log and regions.
func settle(ctx context.Context, kv *rdmaagreement.ShardedKV) error {
	before := make(map[string]int)
	for _, name := range kv.Shards() {
		before[name] = kv.ShardLog(name).Snapshots()
	}
	for {
		waiting := ""
		for _, name := range kv.Shards() {
			log := kv.ShardLog(name)
			if log.Snapshots() == before[name] {
				waiting = fmt.Sprintf("shard %s has not snapshotted", name)
			}
			for _, p := range log.Cluster().Procs {
				if applied, _ := log.ReplicaApplied(p); applied != log.Len() {
					waiting = fmt.Sprintf("shard %s replica %s applied %d of %d entries", name, p, applied, log.Len())
				}
			}
		}
		if waiting == "" {
			return nil
		}
		errs := make(chan error, preloaders)
		for i := 0; i < preloaders; i++ {
			go func() {
				_, _, err := kv.Put(ctx, "filler/"+strconv.Itoa(i), "filler")
				errs <- err
			}()
		}
		for i := 0; i < preloaders; i++ {
			if err := <-errs; err != nil {
				return fmt.Errorf("store did not settle: %s: %w", waiting, err)
			}
		}
	}
}
