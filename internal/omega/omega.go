// Package omega implements the Ω failure detector assumed by the paper's
// leader-based protocols (Protected Memory Paxos, and the liveness argument
// of Fast & Robust): an oracle that eventually reports the same correct
// process as leader at every correct process.
//
// Two implementations are provided. Static is a trivially correct oracle
// whose leader is set explicitly: tests and common-case experiments use it
// (the paper measures the common case where the initial leader never
// changes), and so does a recovery instance, which pins its recovery
// proposer as leader. LeaseDetector (lease.go) is the one a cluster runs: a
// lease-granting failure detector whose heartbeat-renewed leases carry
// monotone epochs, so that a takeover fences the deposed holder.
package omega

import (
	"sync"

	"rdmaagreement/internal/types"
)

// Oracle reports the current leader at one process.
type Oracle interface {
	Leader() types.ProcID
}

// Static is an Oracle whose leader is set explicitly. The zero value reports
// NoProcess; use NewStatic or SetLeader. Static is safe for concurrent use.
type Static struct {
	mu     sync.RWMutex
	leader types.ProcID
}

var _ Oracle = (*Static)(nil)

// NewStatic creates a static oracle with the given initial leader.
func NewStatic(leader types.ProcID) *Static { return &Static{leader: leader} }

// Leader returns the configured leader.
func (s *Static) Leader() types.ProcID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.leader
}

// SetLeader changes the reported leader. Tests use it to simulate leader
// changes and the resulting contention.
func (s *Static) SetLeader(p types.ProcID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leader = p
}
