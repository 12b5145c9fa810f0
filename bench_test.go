package rdmaagreement

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkLogAppend measures replicated-log throughput over ONE long-lived
// cluster (the smr subsystem): sequential appends pay one slot each, while
// concurrent appends amortize slots over batches.
func BenchmarkLogAppend(b *testing.B) {
	newBenchLog := func(b *testing.B) *Log {
		b.Helper()
		l, err := NewLog(LogOptions{Cluster: Options{Processes: 3, Memories: 3}})
		if err != nil {
			b.Fatalf("NewLog: %v", err)
		}
		b.Cleanup(l.Close)
		return l
	}
	b.Run("sequential", func(b *testing.B) {
		l := newBenchLog(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := l.Propose(ctx, []byte("bench")); err != nil {
				b.Fatalf("Propose: %v", err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(l.Len())/float64(l.Slots()), "cmds/slot")
	})
	b.Run("concurrent", func(b *testing.B) {
		l := newBenchLog(b)
		ctx := context.Background()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := l.Propose(ctx, []byte("bench")); err != nil {
					b.Errorf("Propose: %v", err) // Fatalf must not run off the benchmark goroutine
					return
				}
			}
		})
		b.StopTimer()
		if slots := l.Slots(); slots > 0 {
			b.ReportMetric(float64(l.Len())/float64(slots), "cmds/slot")
		}
	})
	// Pipelined appends: identical configs except the pipeline depth, in the
	// latency-bound regime the paper targets (slot cost ≈ memory round
	// trips). The batch is bounded so concurrent submitters produce several
	// batches, which is what a pipeline can overlap: at depth 1 the slots
	// serialize, at depth 4 up to four slots hide each other's fabric
	// latency while the reorder buffer keeps commit order gap-free. Depth 4
	// is expected ≥ 1.5x the depth-1 rate.
	for _, depth := range []int{1, 4} {
		depth := depth
		b.Run(fmt.Sprintf("pipeline=%d", depth), func(b *testing.B) {
			l, err := NewLog(LogOptions{
				Cluster:  Options{Processes: 3, Memories: 3, MemoryLatency: time.Millisecond},
				MaxBatch: 2,
				Pipeline: depth,
			})
			if err != nil {
				b.Fatalf("NewLog: %v", err)
			}
			b.Cleanup(l.Close)
			ctx := context.Background()
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, _, err := l.Propose(ctx, []byte("bench")); err != nil {
						b.Errorf("Propose: %v", err) // Fatalf must not run off the benchmark goroutine
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(l.Cluster().PeakInstances()), "peak-slots-in-flight")
		})
	}
}

// BenchmarkShardedKV measures aggregate put throughput as the key space is
// sharded over more independent replicated-log groups: appends/sec scale
// with the shard count because unrelated keys commit in parallel.
//
// The memories simulate a per-operation latency (the regime the paper
// targets: decision cost dominated by hardware round trips, not CPU), and
// the per-group batch is bounded, so a single group saturates at
// MaxBatch/slot-time and additional shards multiply the ceiling.
func BenchmarkShardedKV(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			kv, err := NewShardedKV(ShardedKVOptions{
				Shards: shards,
				Log: LogOptions{
					Cluster:  Options{Processes: 3, Memories: 3, MemoryLatency: 2 * time.Millisecond},
					MaxBatch: 4,
				},
			})
			if err != nil {
				b.Fatalf("NewShardedKV: %v", err)
			}
			b.Cleanup(kv.Close)
			ctx := context.Background()
			var seq atomic.Int64
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					key := fmt.Sprintf("user/%d", i)
					if _, _, err := kv.Put(ctx, key, "bench"); err != nil {
						b.Errorf("Put: %v", err) // Fatalf must not run off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

// BenchmarkLogRead measures the three read paths of a replicated
// state-machine group: Read without a lease pays a read-index barrier (one
// no-op slot commit, or a ride on a concurrent batch); Read under a healthy
// lease serves locally with the same linearizability guarantee and zero
// slots; StaleRead answers from the leader's local view with no guarantee
// and no consensus round at all.
func BenchmarkLogRead(b *testing.B) {
	newReadLog := func(b *testing.B, lease time.Duration) *Log {
		b.Helper()
		l, err := NewLog(LogOptions{
			Cluster: Options{Processes: 3, Memories: 3, LeaseDuration: lease},
			NewSM:   func() StateMachine { return &counterMachine{} },
		})
		if err != nil {
			b.Fatalf("NewLog: %v", err)
		}
		b.Cleanup(l.Close)
		ctx := context.Background()
		if _, _, err := l.Propose(ctx, []byte("seed")); err != nil {
			b.Fatalf("Propose: %v", err)
		}
		return l
	}
	b.Run("linearizable", func(b *testing.B) {
		l := newReadLog(b, 0)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Read(ctx, nil); err != nil {
				b.Fatalf("Read: %v", err)
			}
		}
	})
	b.Run("lease", func(b *testing.B) {
		l := newReadLog(b, 500*time.Millisecond)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Read(ctx, nil); err != nil {
				b.Fatalf("Read: %v", err)
			}
		}
		b.StopTimer()
		if stats := l.Stats(); stats.BarrierReads > stats.LeaseReads {
			b.Fatalf("lease bench mostly fell back to barriers: %d barrier vs %d lease reads", stats.BarrierReads, stats.LeaseReads)
		}
	})
	b.Run("stale", func(b *testing.B) {
		l := newReadLog(b, 0)
		leader := l.Cluster().Leader()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.StaleRead(leader, nil); err != nil {
				b.Fatalf("StaleRead: %v", err)
			}
		}
	})
}
