package smr

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/core"
)

// TestPipelinedCommitOrder drives many single-command batches through a
// pipelined committer (MaxBatch 1 forces one slot per command, so up to
// Pipeline slot agreements genuinely overlap) and checks the reorder buffer's
// contract: even when decides complete out of order, responses and commit
// callbacks are observed strictly in slot order — OnCommit sees contiguous
// indexes with non-decreasing slots, per-client FIFO holds, and every
// replica learns the identical sequence. Run with -race: the dispatcher,
// the slot workers and their learner goroutines all touch the shared views.
func TestPipelinedCommitOrder(t *testing.T) {
	var commitMu sync.Mutex
	var committed []Entry
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.Pipeline = 4
	opts.MaxBatch = 1
	// A little memory latency keeps several slots genuinely in flight (and
	// lets their decides land in whatever order the scheduler produces).
	opts.Cluster.MemoryLatency = 2 * time.Millisecond
	opts.OnCommit = func(e Entry) {
		commitMu.Lock()
		committed = append(committed, e)
		commitMu.Unlock()
	}
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const clients = 8
	const perClient = 5
	total := uint64(clients * perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := int64(-1)
			for k := 0; k < perClient; k++ {
				index, _, err := l.Propose(ctx, []byte(fmt.Sprintf("c%d/%d", c, k)))
				if err != nil {
					t.Errorf("Propose(c%d/%d): %v", c, k, err)
					return
				}
				// Responses resolve at apply time, so a client's indexes must
				// be strictly increasing even with other slots in flight.
				if int64(index) <= last {
					t.Errorf("client %d: index %d after %d — responses out of order", c, index, last)
					return
				}
				last = int64(index)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The pipeline actually overlapped slot agreements (not a serial commit
	// under a new name).
	if peak := l.Cluster().PeakInstances(); peak < 2 {
		t.Fatalf("PeakInstances() = %d, want ≥ 2 concurrent slot instances", peak)
	}

	// Commit callbacks: contiguous indexes, non-decreasing slots — the
	// reorder buffer applied slots in order regardless of decide order.
	commitMu.Lock()
	defer commitMu.Unlock()
	if uint64(len(committed)) != total {
		t.Fatalf("OnCommit saw %d entries, want %d", len(committed), total)
	}
	for i, e := range committed {
		if e.Index != uint64(i) {
			t.Fatalf("OnCommit[%d].Index = %d: commit order has a gap or reordering", i, e.Index)
		}
		if i > 0 && e.Slot < committed[i-1].Slot {
			t.Fatalf("OnCommit[%d].Slot = %d after slot %d: applied out of slot order", i, e.Slot, committed[i-1].Slot)
		}
	}

	// Per-client FIFO across the whole log.
	entries := l.Entries(0)
	lastSeq := make([]int, clients)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	for _, e := range entries {
		parts := strings.SplitN(strings.TrimPrefix(string(e.Cmd), "c"), "/", 2)
		c, err1 := strconv.Atoi(parts[0])
		k, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed command %q", e.Cmd)
		}
		if k != lastSeq[c]+1 {
			t.Fatalf("client %d: command %d committed after %d — FIFO violated by pipelining", c, k, lastSeq[c])
		}
		lastSeq[c] = k
	}

	// Every replica learned the identical sequence.
	leaderLog, ok := l.ReplicaLog(l.Cluster().Leader())
	if !ok || uint64(len(leaderLog)) != total {
		t.Fatalf("leader replica log: %d commands (gap-free=%v), want %d", len(leaderLog), ok, total)
	}
	for _, p := range l.Cluster().Procs {
		replicaLog, ok := l.ReplicaLog(p)
		if !ok || len(replicaLog) != len(leaderLog) {
			t.Fatalf("replica %s log: %d commands (gap-free=%v), leader has %d", p, len(replicaLog), ok, len(leaderLog))
		}
		for i := range leaderLog {
			if !bytes.Equal(replicaLog[i], leaderLog[i]) {
				t.Fatalf("replica %s log[%d] = %q, leader log[%d] = %q", p, i, replicaLog[i], i, leaderLog[i])
			}
		}
	}
}

// TestPipelinedReadBarriers checks that linearizable reads stay correct under
// pipelining: the read index is keyed to the contiguous applied prefix, so a
// Read issued after a Propose returned always observes that command even
// with several later slots in flight.
func TestPipelinedReadBarriers(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.Pipeline = 4
	opts.MaxBatch = 1
	opts.Cluster.MemoryLatency = time.Millisecond
	opts.NewSM = func() StateMachine { return &countingSM{} }
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Background writers keep the pipeline saturated while the foreground
	// alternates Propose → Read and checks the read observes its write.
	bg, stopBG := context.WithCancel(ctx)
	var bgWG sync.WaitGroup
	for c := 0; c < 4; c++ {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			for bg.Err() == nil {
				if _, _, err := l.Propose(bg, []byte("bg")); err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		index, _, err := l.Propose(ctx, []byte("fg"))
		if err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
		resp, err := l.Read(ctx, nil)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		applied, err := strconv.Atoi(string(resp))
		if err != nil {
			t.Fatalf("Read(%d) response %q: %v", i, resp, err)
		}
		if uint64(applied) <= index {
			t.Fatalf("Read(%d) observed %d applied entries, want > %d (its preceding Propose)", i, applied, index)
		}
	}
	stopBG()
	bgWG.Wait()
}

// TestPipelineOverMessagePassingProtocols exercises per-slot state of the
// classic Paxos baseline, the one message-passing slot backend, under
// concurrent instances: pipelined commits must stay gap-free with agreeing
// replicas.
func TestPipelineOverMessagePassingProtocols(t *testing.T) {
	for _, protocol := range []core.Protocol{core.ProtocolPaxos} {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			opts := testOptions(protocol)
			opts.Pipeline = 4
			opts.MaxBatch = 1
			l := newTestLog(t, opts)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			const clients = 4
			const perClient = 4
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for k := 0; k < perClient; k++ {
						if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("c%d/%d", c, k))); err != nil {
							t.Errorf("Propose(c%d/%d): %v", c, k, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if l.Len() != clients*perClient {
				t.Fatalf("Len() = %d, want %d", l.Len(), clients*perClient)
			}
			for _, p := range l.Cluster().Procs {
				replicaLog, ok := l.ReplicaLog(p)
				if !ok || len(replicaLog) != clients*perClient {
					t.Fatalf("replica %s learned %d commands (gap-free=%v), want %d", p, len(replicaLog), ok, clients*perClient)
				}
			}
		})
	}
}

// countingSM counts applied entries and reports the count to queries.
type countingSM struct{ n int }

func (m *countingSM) Apply(Entry) ([]byte, error) {
	m.n++
	return []byte(strconv.Itoa(m.n)), nil
}
func (m *countingSM) Query([]byte) ([]byte, error) { return []byte(strconv.Itoa(m.n)), nil }
func (m *countingSM) Snapshot() ([]byte, error)    { return []byte(strconv.Itoa(m.n)), nil }
func (m *countingSM) Restore(snapshot []byte, _ uint64) error {
	n, err := strconv.Atoi(string(snapshot))
	if err != nil {
		return err
	}
	m.n = n
	return nil
}
