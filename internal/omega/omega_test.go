package omega

import (
	"testing"

	"rdmaagreement/internal/types"
)

func TestStaticOracle(t *testing.T) {
	s := NewStatic(1)
	if s.Leader() != 1 {
		t.Fatalf("leader = %v", s.Leader())
	}
	s.SetLeader(3)
	if s.Leader() != 3 {
		t.Fatalf("leader after SetLeader = %v", s.Leader())
	}
	var zero Static
	if zero.Leader() != types.NoProcess {
		t.Fatalf("zero static oracle should report no process")
	}
}
