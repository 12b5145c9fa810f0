// Fixture for the applydet analyzer: true positives (clock reads, randomness,
// goroutines, channel operations, order-dependent map ranges — direct, via
// same-package helpers, and via imported facts) and near misses (map writes
// and deletes, commutative accumulation, collect-then-sort, non-root
// functions like Snapshot, justified ignores).
package applydet

import (
	"math/rand"
	"sort"
	"time"

	"applydet/dep"
)

// Entry mirrors the log's entry shape.
type Entry struct {
	ID  uint64
	Cmd []byte
}

type machine struct {
	state map[string]string
	total int
}

func (m *machine) Apply(e Entry) ([]byte, error) {
	stamp := time.Now() // want `call to time\.Now in code reachable from machine\.Apply`
	_ = stamp
	m.state["k"] = string(e.Cmd) // near miss: map writes are deterministic
	delete(m.state, "old")       // near miss: deletes too
	m.total++                    // near miss: commutative accumulation
	return m.helper(), nil
}

func (m *machine) helper() []byte {
	n := rand.Intn(2) // want `call to math/rand\.Intn in code reachable from machine\.Apply`
	return []byte{byte(n)}
}

func (m *machine) Restore(snap []byte, index uint64) error {
	time.Sleep(time.Millisecond) // want `call to time\.Sleep in code reachable from machine\.Restore`
	return nil
}

type spawner struct {
	ch chan int
}

func (s *spawner) Apply(e Entry) ([]byte, error) {
	go func() {}() // want `goroutine spawn in code reachable from spawner\.Apply`
	s.ch <- 1      // want `channel send in code reachable from spawner\.Apply`
	v := <-s.ch    // want `channel receive in code reachable from spawner\.Apply`
	close(s.ch)    // want `channel close in code reachable from spawner\.Apply`
	_ = v
	select {} // want `select statement in code reachable from spawner\.Apply`
}

type rangeMachine struct {
	state map[string]string
}

func (r *rangeMachine) Apply(e Entry) ([]byte, error) {
	var out []byte
	for k := range r.state {
		out = append(out, k...) // want `append to out inside a map range is order-dependent`
	}
	label := ""
	for k := range r.state {
		label += k // want `string accumulation over a map range is order-dependent`
	}
	_ = label
	return out, nil
}

func (r *rangeMachine) Restore(snap []byte, index uint64) error {
	keys := make([]string, 0, len(r.state))
	for k := range r.state {
		keys = append(keys, k) // near miss: collected keys are sorted below
	}
	sort.Strings(keys)
	for k := range r.state {
		if k != string(snap) {
			delete(r.state, k) // near miss: deletes are order-independent
		}
	}
	return nil
}

func (r *rangeMachine) Snapshot() ([]byte, error) {
	var b []byte
	for k := range r.state {
		b = append(b, k...) // near miss: Snapshot is not a determinism root
	}
	return b, nil
}

//smrlint:deterministic
func replayCheck() {
	time.Sleep(0) // want `call to time\.Sleep in code reachable from replayCheck`
}

type stamped struct{}

func (s *stamped) Apply(e Entry) ([]byte, error) {
	v := dep.Stamp() // want `call to Stamp is nondeterministic \(time\.Now\) in code reachable from stamped\.Apply`
	_ = v
	return nil, nil
}

func (s *stamped) Restore(snap []byte, index uint64) error {
	//smrlint:ignore applydet replay stamp feeds metrics only, not state
	time.Sleep(0) // suppressed by the justified ignore above
	return nil
}

func wallClock() int64 {
	return time.Now().UnixNano() // near miss: not reachable from any root
}
