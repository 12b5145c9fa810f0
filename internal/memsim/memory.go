package memsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/simtime"
	"rdmaagreement/internal/types"
)

// RegionSpec describes a memory region to create: its identifier, the
// registers it contains and its initial permission.
//
// Dynamic regions model large register arrays (for example the n×M×n slot
// array of non-equivocating broadcast) without pre-declaring every register:
// any register name is considered part of the region, and registers are
// materialized on first access with value ⊥.
type RegionSpec struct {
	ID        types.RegionID
	Registers []types.RegisterID
	Perm      Permission
	Dynamic   bool
}

// Options configure a Memory.
type Options struct {
	// LegalChange is the permission-change policy. Nil means
	// StaticPermissions (no change is ever legal).
	LegalChange LegalChangeFunc
	// OperationLatency, if positive, is how long each operation takes: it
	// completes at its issue time plus OperationLatency, sub-millisecond
	// precise on Linux and millisecond-granular elsewhere (see simtime).
	// Used by wall-clock experiments (E8); delay-count experiments leave
	// it zero.
	OperationLatency time.Duration
}

// OpCounters tallies the operations served by a memory, for experiment
// metrics.
type OpCounters struct {
	Reads       atomic.Int64
	Writes      atomic.Int64
	PermChanges atomic.Int64
	Naks        atomic.Int64
}

// Snapshot returns a plain-struct copy of the counters.
func (c *OpCounters) Snapshot() OpCounterSnapshot {
	return OpCounterSnapshot{
		Reads:       c.Reads.Load(),
		Writes:      c.Writes.Load(),
		PermChanges: c.PermChanges.Load(),
		Naks:        c.Naks.Load(),
	}
}

// OpCounterSnapshot is an immutable copy of OpCounters.
type OpCounterSnapshot struct {
	Reads       int64
	Writes      int64
	PermChanges int64
	Naks        int64
}

// Total returns the total number of operations (excluding naks, which are
// also counted under their operation type).
func (s OpCounterSnapshot) Total() int64 { return s.Reads + s.Writes + s.PermChanges }

type registerState struct {
	value  types.Value
	writer types.ProcID
}

type regionState struct {
	registers map[types.RegisterID]registerState
	perm      Permission
	dynamic   bool
}

// contains reports whether the region includes the register, materializing it
// for dynamic regions. Registers are scoped to their region: two regions with
// a register of the same name hold independent registers (the paper notes
// that regions may overlap in general but never do in its algorithms, and
// keeping registers region-scoped prevents accidental aliasing).
func (rs *regionState) contains(reg types.RegisterID) bool {
	if _, ok := rs.registers[reg]; ok {
		return true
	}
	if rs.dynamic {
		rs.registers[reg] = registerState{}
		return true
	}
	return false
}

// Memory simulates one RDMA-accessible memory host.
//
// All exported methods are safe for concurrent use. Read, Write and
// ChangePermission accept the invoking process's current delay-clock reading
// and return the reading after the operation (invoked + 2 delays), so callers
// can account delays causally.
type Memory struct {
	id   types.MemID
	opts Options

	mu       sync.Mutex
	regions  map[types.RegionID]*regionState
	crashed  bool
	counters OpCounters
}

// NewMemory creates a memory with the given regions. Registers are scoped to
// their region: regions in this simulator never overlap, matching the paper's
// algorithms ("regions may overlap, but in our algorithms they do not").
func NewMemory(id types.MemID, regions []RegionSpec, opts Options) *Memory {
	if opts.LegalChange == nil {
		opts.LegalChange = StaticPermissions
	}
	m := &Memory{
		id:      id,
		opts:    opts,
		regions: make(map[types.RegionID]*regionState, len(regions)),
	}
	for _, spec := range regions {
		m.installRegionLocked(spec)
	}
	return m
}

// installRegionLocked installs or replaces a region. Callers must hold m.mu
// or be the only goroutine with access (construction time).
func (m *Memory) installRegionLocked(spec RegionSpec) {
	rs := &regionState{
		registers: make(map[types.RegisterID]registerState, len(spec.Registers)),
		perm:      spec.Perm.Clone(),
		dynamic:   spec.Dynamic,
	}
	for _, reg := range spec.Registers {
		rs.registers[reg] = registerState{}
	}
	m.regions[spec.ID] = rs
}

// ID returns the memory's identifier.
func (m *Memory) ID() types.MemID { return m.id }

// Counters returns the memory's operation counters.
func (m *Memory) Counters() *OpCounters { return &m.counters }

// Crash makes the memory unresponsive: every subsequent operation hangs until
// the caller's context is cancelled. Crashing is idempotent.
func (m *Memory) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = true
}

// Crashed reports whether the memory has crashed.
func (m *Memory) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Revive brings a crashed memory back: operations issued after Revive behave
// normally again, and every region keeps the contents and permissions it had
// when the crash hit (the crash stalls the memory, it does not wipe it).
// Operations that were already blocked on the crashed memory stay blocked
// until their own context ends — the crash consumed them, exactly like a
// request lost inside a rebooting NIC. Reviving a live memory is a no-op.
//
// Revive models transient stalls (a switch reboot, a zombie interval): the
// replicated-log recovery path needs the fabric to come back so a slot whose
// outcome became ambiguous during the stall can be re-read.
func (m *Memory) Revive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
}

// AddRegion creates a new region at run time. It is used by tests and by
// protocols that lay out per-instance regions lazily. Adding a region that
// already exists replaces its permission and register set.
func (m *Memory) AddRegion(spec RegionSpec) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.installRegionLocked(spec)
}

// EnsureRegion installs the region only if it does not exist yet and reports
// whether it installed it. Unlike AddRegion it never resets the state or the
// permission of an existing region, so concurrent proposers of the same
// consensus instance can race to lay out its region safely (the replicated-log
// layer installs one region per slot this way).
func (m *Memory) EnsureRegion(spec RegionSpec) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.regions[spec.ID]; ok {
		return false
	}
	m.installRegionLocked(spec)
	return true
}

// ReleaseRegion removes a region and all its registers, reporting whether it
// existed. It is the memory-side half of replicated-log slot GC: once a
// slot's decision has been folded into a state-machine snapshot, its region
// is dead weight and the committer releases it on every memory, so live
// memory is bounded by the snapshot window instead of log length. Subsequent
// operations on a released region fail with ErrUnknownRegion, exactly like a
// region that never existed.
func (m *Memory) ReleaseRegion(region types.RegionID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.regions[region]; !ok {
		return false
	}
	delete(m.regions, region)
	return true
}

// LiveRegions returns the number of regions currently installed — the figure
// slot-GC tests bound.
func (m *Memory) LiveRegions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.regions)
}

// RegionPermission returns a copy of the current permission of region. It is
// a diagnostic helper (the model itself does not expose permission reads; the
// harness and tests use this to assert on permission state).
func (m *Memory) RegionPermission(region types.RegionID) (Permission, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.regions[region]
	if !ok {
		return Permission{}, fmt.Errorf("memory %s: %w: %s", m.id, types.ErrUnknownRegion, region)
	}
	return rs.perm.Clone(), nil
}

// await simulates the memory's response behaviour: if the memory crashed the
// call blocks until ctx is cancelled; otherwise it waits until the operation
// latency has passed since the call.
func (m *Memory) await(ctx context.Context) error {
	m.mu.Lock()
	crashed := m.crashed
	m.mu.Unlock()
	if crashed {
		<-ctx.Done()
		return fmt.Errorf("memory %s: %w: %w", m.id, types.ErrMemoryCrashed, ctx.Err())
	}
	err := ctx.Err()
	if m.opts.OperationLatency > 0 {
		err = simtime.Until(ctx, time.Now().Add(m.opts.OperationLatency))
	}
	if err != nil {
		return fmt.Errorf("memory %s: %w", m.id, err)
	}
	return nil
}

// Read returns the last value successfully written to register reg of region,
// or a nak error if p lacks read permission. invoked is the caller's delay
// clock reading at invocation; the returned stamp is the reading after the
// two-delay round trip.
func (m *Memory) Read(ctx context.Context, p types.ProcID, region types.RegionID, reg types.RegisterID, invoked delayclock.Stamp) (types.Value, delayclock.Stamp, error) {
	if err := m.await(ctx); err != nil {
		return nil, invoked, err
	}
	done := invoked.AfterMemoryOp()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters.Reads.Add(1)
	rs, ok := m.regions[region]
	if !ok {
		return nil, done, fmt.Errorf("memory %s read %s: %w", m.id, region, types.ErrUnknownRegion)
	}
	if !rs.contains(reg) {
		return nil, done, fmt.Errorf("memory %s read %s/%s: %w", m.id, region, reg, types.ErrUnknownRegister)
	}
	if !rs.perm.CanRead(p) {
		m.counters.Naks.Add(1)
		return nil, done, fmt.Errorf("memory %s read %s/%s by %s: %w", m.id, region, reg, p, types.ErrNak)
	}
	return rs.registers[reg].value.Clone(), done, nil
}

// Write stores v in register reg of region, or returns a nak error if p lacks
// write permission.
func (m *Memory) Write(ctx context.Context, p types.ProcID, region types.RegionID, reg types.RegisterID, v types.Value, invoked delayclock.Stamp) (delayclock.Stamp, error) {
	if err := m.await(ctx); err != nil {
		return invoked, err
	}
	done := invoked.AfterMemoryOp()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters.Writes.Add(1)
	rs, ok := m.regions[region]
	if !ok {
		return done, fmt.Errorf("memory %s write %s: %w", m.id, region, types.ErrUnknownRegion)
	}
	if !rs.contains(reg) {
		return done, fmt.Errorf("memory %s write %s/%s: %w", m.id, region, reg, types.ErrUnknownRegister)
	}
	if !rs.perm.CanWrite(p) {
		m.counters.Naks.Add(1)
		return done, fmt.Errorf("memory %s write %s/%s by %s: %w", m.id, region, reg, p, types.ErrNak)
	}
	rs.registers[reg] = registerState{value: v.Clone(), writer: p}
	return done, nil
}

// ChangePermission changes the permission of region to newPerm if the
// region's legalChange policy allows it; otherwise the change is a no-op and
// ErrIllegalPermissionChange is returned. As in the model, the operation is a
// memory round trip (two delays) either way.
func (m *Memory) ChangePermission(ctx context.Context, p types.ProcID, region types.RegionID, newPerm Permission, invoked delayclock.Stamp) (delayclock.Stamp, error) {
	if err := m.await(ctx); err != nil {
		return invoked, err
	}
	done := invoked.AfterMemoryOp()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters.PermChanges.Add(1)
	rs, ok := m.regions[region]
	if !ok {
		return done, fmt.Errorf("memory %s changePermission %s: %w", m.id, region, types.ErrUnknownRegion)
	}
	if !m.opts.LegalChange(p, region, rs.perm.Clone(), newPerm.Clone()) {
		m.counters.Naks.Add(1)
		return done, fmt.Errorf("memory %s changePermission %s by %s: %w", m.id, region, p, types.ErrIllegalPermissionChange)
	}
	rs.perm = newPerm.Clone()
	return done, nil
}

// Pool is a convenience collection of memories sharing a common region
// layout, as used by the replication layer (m ≥ 2f_M + 1 memories).
type Pool struct {
	mems []*Memory
}

// NewPool creates count memories, each initialized with the regions produced
// by layout(memID). The layout function lets callers vary register names per
// memory if needed; most callers use the same layout for every memory.
func NewPool(count int, layout func(types.MemID) []RegionSpec, opts Options) *Pool {
	p := &Pool{mems: make([]*Memory, 0, count)}
	for i := 1; i <= count; i++ {
		id := types.MemID(i)
		p.mems = append(p.mems, NewMemory(id, layout(id), opts))
	}
	return p
}

// Size returns the number of memories in the pool.
func (p *Pool) Size() int { return len(p.mems) }

// Memories returns the memories in identifier order. The returned slice is a
// copy; the memories themselves are shared.
func (p *Pool) Memories() []*Memory {
	out := make([]*Memory, len(p.mems))
	copy(out, p.mems)
	return out
}

// Memory returns the memory with the given identifier, or nil if it does not
// exist.
func (p *Pool) Memory(id types.MemID) *Memory {
	idx := int(id) - 1
	if idx < 0 || idx >= len(p.mems) {
		return nil
	}
	return p.mems[idx]
}

// Revive revives every crashed memory in the pool (see Memory.Revive) and
// returns the identifiers that were in fact crashed.
func (p *Pool) Revive() []types.MemID {
	revived := make([]types.MemID, 0, len(p.mems))
	for _, m := range p.mems {
		if m.Crashed() {
			m.Revive()
			revived = append(revived, m.ID())
		}
	}
	return revived
}

// Crashed returns the identifiers of the currently crashed memories, in
// identifier order. A fault schedule uses it to audit that every crash it
// injected was healed before a final consistency check.
func (p *Pool) Crashed() []types.MemID {
	out := make([]types.MemID, 0, len(p.mems))
	for _, m := range p.mems {
		if m.Crashed() {
			out = append(out, m.ID())
		}
	}
	return out
}

// CrashQuorumSafe crashes up to n memories chosen in identifier order. It is
// a convenience for tests and fault schedules; it returns the identifiers
// crashed.
func (p *Pool) CrashQuorumSafe(n int) []types.MemID {
	crashed := make([]types.MemID, 0, n)
	for _, m := range p.mems {
		if len(crashed) == n {
			break
		}
		m.Crash()
		crashed = append(crashed, m.ID())
	}
	return crashed
}

// ReleaseRegion removes the region from every memory in the pool and returns
// how many memories held it. Crashed memories still release: the region
// bookkeeping is host-side state, not an RDMA operation, so truncation keeps
// bounding memory even while a minority of memories is unresponsive.
func (p *Pool) ReleaseRegion(region types.RegionID) int {
	released := 0
	for _, m := range p.mems {
		if m.ReleaseRegion(region) {
			released++
		}
	}
	return released
}

// LiveRegions sums the live-region counts of every memory in the pool.
func (p *Pool) LiveRegions() int {
	total := 0
	for _, m := range p.mems {
		total += m.LiveRegions()
	}
	return total
}

// TotalOps sums the operation counters of every memory in the pool.
func (p *Pool) TotalOps() OpCounterSnapshot {
	var out OpCounterSnapshot
	for _, m := range p.mems {
		s := m.Counters().Snapshot()
		out.Reads += s.Reads
		out.Writes += s.Writes
		out.PermChanges += s.PermChanges
		out.Naks += s.Naks
	}
	return out
}
