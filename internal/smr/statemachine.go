package smr

import "errors"

// Lifecycle errors. Propose, Read, ReadFrom and StaleRead wrap these so
// callers can distinguish misuse (errors.Is(err, ErrClosed)) from a group that
// lost the ability to make progress (errors.Is(err, ErrHalted)).
var (
	// ErrClosed is returned by every method invoked after Close. Close is
	// idempotent; only operations started after it observe ErrClosed.
	ErrClosed = errors.New("smr: log closed")
	// ErrHalted is returned once the committer has halted on a slot it could
	// not resolve: the slot's agreement timed out (its outcome may or may
	// not be durable) and every recovery round failed to learn its fate too.
	// The halt is permanent for the group; the wrapped cause is preserved.
	ErrHalted = errors.New("smr: log halted")
	// ErrNotQueryable is returned by Read, ReadFrom and StaleRead when the
	// group's state machine does not implement Querier.
	ErrNotQueryable = errors.New("smr: state machine does not implement Querier")
	// ErrLeaseLost is the typed retryable error returned to waiters whose
	// batch was displaced by leadership changes without committing: a
	// takeover fences the epoch the batch was proposed under, and the
	// fencing no-ops can win its slots. A takeover-displaced batch is
	// retried at a later slot exactly once; displaced by a takeover again,
	// its waiters get this error instead of an unbounded chase. The command
	// provably did NOT commit, so resubmitting it is safe. Displacement by
	// plain timeout recovery — no leadership change involved — never counts:
	// such a batch is re-dispatched until it commits, exactly as before
	// leases.
	ErrLeaseLost = errors.New("smr: command displaced by a leadership change; safe to retry")
)

// StateMachine is the application contract of a replicated log group: the
// classic RSM interface. One instance is owned by the group (the authoritative
// machine that produces Propose responses) and one per replica (the learner
// views behind StaleRead), all built by the Options.NewSM factory.
//
// The log serializes every call — no two methods of one machine instance ever
// run concurrently (Apply and Query run under the log's lock, which also
// serializes the pipeline workers that drive replica views; Snapshot and the
// Restore of a replacement machine run on the committer's applier goroutine,
// which is the only other caller and the sole driver of the authoritative
// machine) — so implementations need no internal synchronization. They
// must not call back into the Log, and Apply must be deterministic: every
// replica applies the identical entry sequence and must reach the identical
// state.
//
// Entry.Cmd is handed to Apply zero-copy: it aliases the decided slot value
// the log retains, so implementations must treat it as read-only and must
// not hold onto it past the call (copy it if the state needs the bytes).
type StateMachine interface {
	// Apply executes one committed entry and returns the response delivered
	// to the Propose caller. An error is an application-level rejection: the
	// entry stays committed in the log (every replica applies it and must
	// reject it identically) and the group keeps running.
	Apply(e Entry) (resp []byte, err error)
	// Snapshot serializes the complete current state. It is called by the
	// committer every SnapshotInterval applied entries; the returned bytes
	// replace the truncated log prefix, so Restore(Snapshot()) must rebuild
	// exactly the state at the moment of the call.
	Snapshot() ([]byte, error)
	// Restore replaces the machine's state with a snapshot. lastIndex is the
	// log index of the last entry the snapshot covers; the next Apply the
	// machine sees has index lastIndex+1. It is how a lagging replica view
	// catches up after the slots it missed have been truncated. The snapshot
	// buffer is shared (one snapshot may restore several views): treat it as
	// read-only and do not retain it after returning.
	Restore(snapshot []byte, lastIndex uint64) error
}

// Querier is optionally implemented by state machines that serve reads.
// Query must be read-only: it runs outside the log order (at or after the read
// index established by Read/ReadFrom, or at whatever state a StaleRead finds) and
// must not mutate the machine.
type Querier interface {
	Query(query []byte) ([]byte, error)
}

// nopSM is the state machine used when Options.NewSM is nil: the log is then
// a plain replicated log of opaque commands. Apply responds with nil and
// Query answers nil, so Read still works as a pure linearization barrier.
// Its snapshot is empty — a truncated prefix could never be recovered from
// it — which is why slot GC defaults to disabled for plain logs; setting
// SnapshotInterval > 0 without a NewSM is an explicit opt-in to discarding
// the prefix.
type nopSM struct{}

func (nopSM) Apply(Entry) ([]byte, error)  { return nil, nil }
func (nopSM) Snapshot() ([]byte, error)    { return nil, nil }
func (nopSM) Restore([]byte, uint64) error { return nil }
func (nopSM) Query([]byte) ([]byte, error) { return nil, nil }

// querySM serves query against sm, or reports ErrNotQueryable.
func querySM(sm StateMachine, query []byte) ([]byte, error) {
	q, ok := sm.(Querier)
	if !ok {
		return nil, ErrNotQueryable
	}
	return q.Query(query)
}
