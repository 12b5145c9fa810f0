package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestGaugeDeltaAndPeak(t *testing.T) {
	var g Gauge
	g.Add(3)
	g.Add(4) // level 7 — peak
	g.Add(-5)
	if got := g.Load(); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
	if got := g.Peak(); got != 7 {
		t.Fatalf("Peak = %d, want 7", got)
	}
	// A later lower level must not move the peak.
	g.Add(1)
	if got := g.Peak(); got != 7 {
		t.Fatalf("Peak after re-raise = %d, want 7", got)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound ("le")
// semantics: a value exactly on a bound lands in that bound's bucket, one
// nanosecond above it lands in the next, and values past the last bound land
// in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond})
	h.Observe(time.Millisecond)                   // exactly bound 0 → bucket 0
	h.Observe(time.Millisecond + time.Nanosecond) // just above → bucket 1
	h.Observe(2 * time.Millisecond)               // exactly bound 1 → bucket 1
	h.Observe(4 * time.Millisecond)               // exactly last bound → bucket 2
	h.Observe(5 * time.Millisecond)               // past last bound → overflow
	h.Observe(0)                                  // zero → bucket 0
	h.Observe(-time.Millisecond)                  // negative clamps to zero → bucket 0

	s := h.Snapshot()
	want := []uint64{3, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("Counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if s.Max != 5*time.Millisecond {
		t.Fatalf("Max = %v, want 5ms", s.Max)
	}
	// Sum: 1 + 1.000000001 + 2 + 4 + 5 + 0 + 0 ms.
	wantSum := 13*time.Millisecond + time.Nanosecond
	if s.Sum != wantSum {
		t.Fatalf("Sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(nil)
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	// All observations are 1ms, which falls in the (512µs, 1024µs] bucket of
	// the default bounds; interpolation must stay inside that bucket and
	// strictly above zero (the property the CI non-zero gates rely on).
	if p50 <= 512*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Fatalf("p50 = %v, want within (512µs, 1024µs]", p50)
	}
	if got := s.Quantile(1.0); got > s.Max {
		t.Fatalf("p100 = %v exceeds Max %v", got, s.Max)
	}
	if s.Mean() != time.Millisecond {
		t.Fatalf("Mean = %v, want 1ms", s.Mean())
	}

	// Unit values on the smr batch-size bounds, every one 1: the [0, 1]
	// bucket must not interpolate down to 0.
	ones := NewHistogram([]time.Duration{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		ones.Observe(1)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := ones.Snapshot().Quantile(q); got != 1 {
			t.Fatalf("all-ones Quantile(%v) = %d, want 1", q, got)
		}
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 50*time.Millisecond {
		t.Fatalf("p99 = %v, want ~100ms", p99)
	}
	// Quantiles must be monotone in q.
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile at lower q %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram accepted non-ascending bounds")
		}
	}()
	NewHistogram([]time.Duration{2 * time.Millisecond, time.Millisecond})
}

// TestZeroAllocRecordPath is the allocation gate of the record path: no
// instrument's record method may allocate.
func TestZeroAllocRecordPath(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram(nil)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1); g.Add(-1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}

// TestConcurrentRecordSnapshot races writers against snapshot readers (run
// under -race in CI). Snapshots taken mid-flight must be internally
// consistent: Count equals the bucket sum by construction, and counters are
// monotone across successive reads.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	g := r.Gauge("depth")
	h := r.Histogram("lat")

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i%10+1) * time.Millisecond)
				g.Add(-1)
			}
		}()
	}

	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var lastCount uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.Snapshot()
			var sum uint64
			for _, n := range snap.Counts {
				sum += n
			}
			if sum != snap.Count {
				t.Errorf("snapshot inconsistent: bucket sum %d != count %d", sum, snap.Count)
				return
			}
			if snap.Count < lastCount {
				t.Errorf("histogram count went backwards: %d -> %d", lastCount, snap.Count)
				return
			}
			lastCount = snap.Count
			_ = r.Snapshot()
			var sb strings.Builder
			_ = r.WriteText(&sb)
		}
	}()

	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge settled at %d, want 0", got)
	}
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter(a) not stable across calls")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge(b) not stable across calls")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("Histogram(c) not stable across calls")
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("smr_slots_total").Add(3)
	r.Gauge("smr_queue_depth").Add(5)
	r.Histogram("smr_apply").Observe(2 * time.Millisecond)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE smr_slots_total counter\nsmr_slots_total 3\n",
		"# TYPE smr_queue_depth gauge\nsmr_queue_depth 5\nsmr_queue_depth_peak 5\n",
		"# TYPE smr_apply histogram\n",
		"smr_apply_bucket{le=\"+Inf\"} 1\n",
		"smr_apply_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotMap(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(7)
	r.Gauge("depth").Add(2)
	r.Histogram("lat").Observe(time.Millisecond)

	snap := r.Snapshot()
	if got, ok := snap["ops"].(uint64); !ok || got != 7 {
		t.Fatalf("snap[ops] = %v", snap["ops"])
	}
	gv, ok := snap["depth"].(map[string]int64)
	if !ok || gv["current"] != 2 || gv["peak"] != 2 {
		t.Fatalf("snap[depth] = %v", snap["depth"])
	}
	hv, ok := snap["lat"].(map[string]any)
	if !ok || hv["count"].(uint64) != 1 {
		t.Fatalf("snap[lat] = %v", snap["lat"])
	}
	if p50 := hv["p50_ms"].(float64); p50 <= 0 {
		t.Fatalf("snap[lat].p50_ms = %v, want > 0", p50)
	}
}
