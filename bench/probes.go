package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"rdmaagreement"
	"rdmaagreement/internal/core"
	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/smr"
	"rdmaagreement/internal/types"
	"rdmaagreement/internal/wire"
	"rdmaagreement/kvserver"
)

// cost is what one call of a probed function costs, as means over n calls.
type cost struct{ ns, allocs, bytes float64 }

// probe calls f n times from this goroutine alone. Nothing else runs: the
// workload's store is closed before the probes start.
func probe(n int, f func(i int) error) (cost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return cost{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return cost{
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// layerProbes runs each layer's exported functions in isolation on
// zero-latency substrates and reports their cost under the layer's name.
func layerProbes(out map[string]float64) error {
	ctx := context.Background()
	procs := []types.ProcID{1, 2, 3}
	value := []byte(valueOf(1, 1) + valueOf(2, 2)) // 128 bytes, about one single-command slot value

	// wire: the JSON both sides of a put pay, and the error taxonomy round trip.
	c, err := probe(5000, func(i int) error {
		var req wire.PutRequest
		var resp wire.PutResponse
		blob, err := json.Marshal(wire.PutRequest{Value: valueOf(i, 1)})
		if err == nil {
			err = json.Unmarshal(blob, &req)
		}
		if err == nil {
			blob, err = json.Marshal(wire.PutResponse{Shard: "shard-0", Index: uint64(i)})
		}
		if err == nil {
			err = json.Unmarshal(blob, &resp)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("wire put codec: %w", err)
	}
	out["wire.put_codec_ns"], out["wire.put_codec_allocs"] = c.ns, c.allocs
	c, err = probe(5000, func(int) error {
		_, werr := wire.FromError(rdmaagreement.ErrLeaseLost)
		blob, err := json.Marshal(werr)
		if err != nil {
			return err
		}
		var back wire.Error
		if err := json.Unmarshal(blob, &back); err != nil {
			return err
		}
		if wire.Sentinel(back.Code) != rdmaagreement.ErrLeaseLost {
			return fmt.Errorf("code %q did not round-trip", back.Code)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wire error codec: %w", err)
	}
	out["wire.error_codec_ns"] = c.ns

	// shard: one ring lookup.
	ring := rdmaagreement.NewRing([]string{"shard-0", "shard-1"}, 0)
	names := make([]string, 1024)
	for i := range names {
		names[i] = keyName(i)
	}
	c, _ = probe(200000, func(i int) error { ring.Shard(names[i%len(names)]); return nil })
	out["shard.lookup_ns"] = c.ns

	// smr: Propose on a no-op machine, one caller, so one command per slot.
	l, err := smr.NewLog(smr.Options{})
	if err != nil {
		return err
	}
	c, err = probe(1000, func(int) error { _, _, err := l.Propose(ctx, value[:valueSize]); return err })
	l.Close()
	if err != nil {
		return fmt.Errorf("smr propose: %w", err)
	}
	out["smr.propose_nop_us"], out["smr.propose_nop_allocs"] = c.ns/1e3, c.allocs

	// core: what a slot costs before and without any proposal, then a whole
	// decision — the leader proposes and the other processes learn it.
	cl, err := core.NewCluster(core.ProtocolProtectedMemoryPaxos, core.Options{InstancesOnly: true})
	if err != nil {
		return err
	}
	c, err = probe(1000, func(i int) error {
		inst, err := cl.NewInstance(uint64(i))
		if err != nil {
			return err
		}
		inst.Close()
		cl.ReleaseInstance(uint64(i))
		return nil
	})
	if err != nil {
		cl.Close()
		return fmt.Errorf("core instance: %w", err)
	}
	out["core.instance_setup_us"], out["core.instance_setup_allocs"] = c.ns/1e3, c.allocs
	leader := cl.Leader()
	c, err = probe(1000, func(i int) error {
		slot := uint64(1000 + i)
		inst, err := cl.NewInstance(slot)
		if err != nil {
			return err
		}
		defer cl.ReleaseInstance(slot)
		defer inst.Close()
		if _, err := inst.Proposer(leader).Propose(ctx, value); err != nil {
			return err
		}
		for _, p := range procs {
			if p != leader {
				if _, err := inst.Proposer(p).WaitDecision(ctx); err != nil {
					return err
				}
			}
		}
		return nil
	})
	cl.Close()
	if err != nil {
		return fmt.Errorf("core decision: %w", err)
	}
	out["core.decision_us"], out["core.decision_allocs"], out["core.decision_bytes"] = c.ns/1e3, c.allocs, c.bytes

	// pmpaxos: the causal delay count of one stable-leader decision, exact.
	single, err := core.NewCluster(core.ProtocolProtectedMemoryPaxos, core.Options{})
	if err != nil {
		return err
	}
	res, err := single.Proposer(single.Leader()).Propose(ctx, value)
	single.Close()
	if err != nil {
		return fmt.Errorf("pmpaxos propose: %w", err)
	}
	out["pmpaxos.decision_delays"] = float64(res.DecisionDelays)

	// memsim: one operation each, then what a 1 ms operation costs beyond 1 ms.
	region := memsim.RegionSpec{ID: "probe", Registers: []types.RegisterID{"x"}, Perm: memsim.OpenPermission(procs)}
	mem := memsim.NewMemory(1, []memsim.RegionSpec{region}, memsim.Options{LegalChange: memsim.AnyChangeAllowed})
	c, err = probe(100000, func(int) error { _, err := mem.Write(ctx, 1, "probe", "x", value, 0); return err })
	if err != nil {
		return fmt.Errorf("memsim write: %w", err)
	}
	out["memsim.write_ns"], out["memsim.write_allocs"] = c.ns, c.allocs
	c, err = probe(100000, func(int) error { _, _, err := mem.Read(ctx, 2, "probe", "x", 0); return err })
	if err != nil {
		return fmt.Errorf("memsim read: %w", err)
	}
	out["memsim.read_ns"], out["memsim.read_allocs"] = c.ns, c.allocs
	c, err = probe(100000, func(int) error { _, err := mem.ChangePermission(ctx, 1, "probe", region.Perm, 0); return err })
	if err != nil {
		return fmt.Errorf("memsim change permission: %w", err)
	}
	out["memsim.chperm_ns"] = c.ns
	slow := memsim.NewMemory(1, []memsim.RegionSpec{region}, memsim.Options{OperationLatency: time.Millisecond})
	c, err = probe(100, func(int) error { _, err := slow.Write(ctx, 1, "probe", "x", value, 0); return err })
	if err != nil {
		return fmt.Errorf("memsim timed write: %w", err)
	}
	out["memsim.timer_overhead_us"] = c.ns/1e3 - 1000

	// netsim: one message from Send to Receive with no delay.
	network := netsim.New(netsim.Options{})
	from, to := network.Register(1), network.Register(2)
	c, err = probe(20000, func(int) error {
		if err := from.Send(2, "probe", value, 0); err != nil {
			return err
		}
		_, err := to.Receive(ctx)
		return err
	})
	network.Close()
	if err != nil {
		return fmt.Errorf("netsim send: %w", err)
	}
	out["netsim.send_deliver_ns"], out["netsim.send_allocs"] = c.ns, c.allocs

	// metrics: one histogram record.
	h := metrics.NewHistogram(nil)
	c, _ = probe(1000000, func(i int) error { h.Observe(time.Duration(i) * time.Microsecond); return nil })
	out["metrics.record_ns"] = c.ns

	// kvserver: the put handler without a socket, on a zero-latency store.
	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{Shards: 1})
	if err != nil {
		return err
	}
	defer kv.Close()
	srv, err := kvserver.New(kvserver.Options{Store: kv})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	body := `{"value":"` + valueOf(1, 1) + `"}`
	c, err = probe(1000, func(i int) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/kv/"+names[i%len(names)], strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("kvserver handler: %w", err)
	}
	out["kvserver.handler_probe_us"] = c.ns / 1e3
	return nil
}
