// Package chaos is the seed-reproducible fault-injection harness behind
// cmd/agreementchaos and the regression-seed tests: it composes random
// schedules of the faults the stack already models — memory crashes,
// lease-holder stalls, message jitter, forced lease transfers and
// interrupted mid-handoff rebalances — runs them against a live ShardedKV
// under concurrent client load (in-process and, optionally, through the
// kvserver/client served path), records the full operation history, and
// checks it with the internal/linearize porcupine-style checker.
//
// Everything random derives from one int64 seed: the fault schedule is a
// pure function of the Config (see Build — same seed, same schedule text,
// byte for byte), and each client's operation stream is seeded from the
// schedule seed plus its client index. Execution timing naturally varies
// between runs, but the faults injected, their targets, magnitudes and
// relative times do not — which is what makes a failing seed a one-line
// repro and a committed seed a regression test.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Fault kinds a schedule composes. Each names a failure mode the paper's
// protocols (and the layers grown on top) claim to survive.
const (
	// KindMemCrash crashes a minority of one shard's memories (operations
	// against them hang, contents survive) and revives them after Dur.
	KindMemCrash = "memcrash"
	// KindStall crashes the current lease holder's process on the network —
	// the zombie-server scenario: the CPU stalls while its memories stay
	// reachable — and revives it after Dur. Requires leases.
	KindStall = "stall"
	// KindJitter installs a seeded per-message extra delivery delay on one
	// shard's network for Dur, reordering deliveries across links.
	KindJitter = "jitter"
	// KindTransfer forces an immediate lease transfer to the next process,
	// exercising epoch fencing of whatever the old holder had in flight.
	KindTransfer = "transfer"
	// KindRebalance adds a shard mid-workload with the handoff interrupted
	// partway (context cancelled), resumes it to completion, then removes
	// the shard the same way — the resume path, which re-proposes the
	// rebalance's commands under its ring version, twice.
	KindRebalance = "rebalance"
)

// AllFaults is every kind, in canonical order.
var AllFaults = []string{KindMemCrash, KindStall, KindJitter, KindTransfer, KindRebalance}

// Event is one scheduled fault.
type Event struct {
	// Index is the event's position in generation order; it seeds any
	// event-local randomness (jitter) and names rebalance shards.
	Index int
	// At is the injection time, relative to the schedule's start.
	At time.Duration
	// Dur is the fault window; the undo (revive, heal, remove) runs at
	// At+Dur. Zero means instantaneous.
	Dur time.Duration
	// Kind is one of the Kind* constants.
	Kind string
	// Shard is the target shard group ("" for kinds without one).
	Shard string
	// N is the kind-specific magnitude: memories to crash for memcrash, the
	// per-message delay cap in microseconds for jitter.
	N int
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%02d t=+%-7s %-9s", e.Index, e.At, e.Kind)
	if e.Shard != "" {
		fmt.Fprintf(&b, " shard=%s", e.Shard)
	}
	if e.N > 0 {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	if e.Dur > 0 {
		fmt.Fprintf(&b, " dur=%s", e.Dur)
	}
	return b.String()
}

// Schedule is a complete, deterministic fault plan.
type Schedule struct {
	Seed   int64
	Window time.Duration
	Events []Event
}

// String renders the schedule. The text is a pure function of the Config
// that built it: replaying a seed reproduces it byte for byte, which is the
// repro contract cmd/agreementchaos prints on failure.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d window=%s events=%d\n", s.Seed, s.Window, len(s.Events))
	for _, e := range s.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Build generates cfg's fault schedule. It is a pure function of the Config:
// it reads nothing but cfg and draws every choice from a rand.Source seeded
// with cfg.Seed, so the same Config always yields the identical Schedule.
// Injection times land in the first 70% of the window and fault windows stay
// within it, so every fault is healed before the post-window audit. Kinds
// that need leases (stall) are excluded when cfg.Lease is zero.
func Build(cfg Config) Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	kinds := enabledKinds(cfg)
	events := make([]Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		// Quantized to milliseconds so schedule text stays readable.
		atMS := rng.Int63n(int64(cfg.Window*7/10-cfg.Window/20)/int64(time.Millisecond)) + int64(cfg.Window/20/time.Millisecond)
		durMS := rng.Int63n(int64(cfg.Window/5)/int64(time.Millisecond)) + int64(cfg.Window/10/time.Millisecond)
		at := time.Duration(atMS) * time.Millisecond
		dur := time.Duration(durMS) * time.Millisecond
		ev := Event{Index: i, At: at, Dur: dur, Kind: kind}
		switch kind {
		case KindMemCrash:
			ev.Shard = fmt.Sprintf("shard-%d", rng.Intn(cfg.Shards))
			ev.N = 1 // minority of the 3-memory groups the store deploys
		case KindStall:
			ev.Shard = fmt.Sprintf("shard-%d", rng.Intn(cfg.Shards))
		case KindJitter:
			ev.Shard = fmt.Sprintf("shard-%d", rng.Intn(cfg.Shards))
			ev.N = 1000 + rng.Intn(7000) // µs cap on the extra delay
		case KindTransfer:
			ev.Shard = fmt.Sprintf("shard-%d", rng.Intn(cfg.Shards))
			ev.Dur = 0
		case KindRebalance:
			ev.Shard = fmt.Sprintf("chaos-%d", i) // the shard it adds+removes
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].At != events[b].At {
			return events[a].At < events[b].At
		}
		return events[a].Index < events[b].Index
	})
	return Schedule{Seed: cfg.Seed, Window: cfg.Window, Events: events}
}

// enabledKinds resolves cfg.Faults (nil means AllFaults) in canonical order,
// dropping kinds the configuration cannot run.
func enabledKinds(cfg Config) []string {
	want := cfg.Faults
	if len(want) == 0 {
		want = AllFaults
	}
	set := make(map[string]bool, len(want))
	for _, k := range want {
		set[k] = true
	}
	out := make([]string, 0, len(AllFaults))
	for _, k := range AllFaults {
		if !set[k] {
			continue
		}
		if k == KindStall && cfg.Lease <= 0 {
			continue // without leases a stalled leader never cedes
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		out = []string{KindMemCrash} // never build an empty schedule
	}
	return out
}

// splitmix64 is the SplitMix64 mixer: a cheap, high-quality way to derive
// independent deterministic streams (per-client seeds, per-message jitter)
// from one schedule seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
