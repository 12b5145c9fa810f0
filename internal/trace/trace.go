// Package trace records the structured events emitted by protocols and
// substrates during an experiment run: proposals, memory operations,
// permission changes, aborts and decisions. The harness uses traces to build
// experiment tables and to check safety properties after a run.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/types"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the protocols in this repository.
const (
	KindPropose          Kind = "propose"
	KindDecide           Kind = "decide"
	KindAbort            Kind = "abort"
	KindPanic            Kind = "panic"
	KindPermissionChange Kind = "permission-change"
	KindLeaderChange     Kind = "leader-change"
	KindBroadcast        Kind = "broadcast"
	KindDeliver          Kind = "deliver"
	KindCrash            Kind = "crash"
	KindInfo             Kind = "info"
)

// Event kinds emitted by the long-lived replication stack (smr, omega, the
// sharded layer) when a recorder is attached via core.Options.Recorder.
const (
	// KindLeaseTakeover marks a lease epoch bump: a new holder seized (or
	// was transferred) the proposer role.
	KindLeaseTakeover Kind = "lease-takeover"
	// KindEpochFence marks a committer observing a lease epoch newer than
	// the one it dispatched under: its in-flight slots are fenced.
	KindEpochFence Kind = "epoch-fence"
	// KindRecover marks an ambiguous-slot recovery round: a slot whose
	// agreement timed out being re-proposed as a no-op.
	KindRecover Kind = "recover"
	// KindRefusedNoOp marks a recovery no-op losing to the original batch,
	// which had persisted and was re-decided.
	KindRefusedNoOp Kind = "refused-noop"
	// KindShardMigrate marks one leg of a shard rebalance (migrate-out
	// commit on the source, migrate-in commit on the destination).
	KindShardMigrate Kind = "shard-migrate"
	// KindSnapshot marks a state-machine snapshot truncating the log.
	KindSnapshot Kind = "snapshot"
)

// Event is one recorded occurrence.
type Event struct {
	At     time.Time
	Proc   types.ProcID
	Kind   Kind
	Detail string
	Value  types.Value
	Stamp  delayclock.Stamp
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("%s %-6s %-18s %s %s",
		e.At.Format("15:04:05.000000"), e.Proc, e.Kind, e.Value, e.Detail)
}

// Recorder collects events. The zero value is a valid, enabled, unbounded
// recorder — right for experiment runs that inspect the full trace
// afterwards. A nil *Recorder is also valid: all methods are no-ops, so
// protocol code can record unconditionally.
//
// For long-lived deployments (a recorder attached to an smr Log serving
// production traffic) use NewRing: a bounded ring buffer that keeps the most
// recent cap events and counts what it dropped, so attaching a recorder can
// never grow memory without bound.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	cap     int    // 0 = unbounded append mode
	start   int    // ring mode: index of the oldest event
	dropped uint64 // ring mode: events overwritten so far
}

// NewRing returns a bounded recorder that retains the most recent capacity
// events, overwriting the oldest and counting overwrites in Dropped.
// Capacity ≤ 0 panics.
func NewRing(capacity int) *Recorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: ring capacity must be positive, got %d", capacity))
	}
	return &Recorder{cap: capacity}
}

// Record appends an event with the current wall-clock time.
func (r *Recorder) Record(proc types.ProcID, kind Kind, value types.Value, stamp delayclock.Stamp, detailFormat string, args ...any) {
	if r == nil {
		return
	}
	e := Event{
		At:     time.Now(),
		Proc:   proc,
		Kind:   kind,
		Detail: fmt.Sprintf(detailFormat, args...),
		Value:  value.Clone(),
		Stamp:  stamp,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cap > 0 && len(r.events) == r.cap {
		r.events[r.start] = e
		r.start = (r.start + 1) % r.cap
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Events returns a copy of the retained events in recording order (in ring
// mode: the most recent cap events, oldest first).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events[r.start:])
	copy(out[len(r.events)-r.start:], r.events[:r.start])
	return out
}

// Dropped reports how many events a ring-mode recorder has overwritten.
// Always zero for unbounded recorders.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ByKind returns the recorded events of the given kind.
func (r *Recorder) ByKind(kind Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// ByProcess returns the recorded events of the given process.
func (r *Recorder) ByProcess(p types.ProcID) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Proc == p {
			out = append(out, e)
		}
	}
	return out
}

// Decisions returns the decide events, which safety checkers inspect.
func (r *Recorder) Decisions() []Event { return r.ByKind(KindDecide) }

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events (and, in ring mode, the dropped count).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
	r.start = 0
	r.dropped = 0
}

// String renders the whole trace, one event per line.
func (r *Recorder) String() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
