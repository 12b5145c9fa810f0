// Package metrics is the always-on observability substrate of the
// replicated-log stack: counters, gauges and fixed-bucket latency histograms
// that are safe for concurrent use, lock-free and allocation-free on the
// record path, and snapshot-able both as typed Go values and as
// Prometheus-style text.
//
// The design splits the two sides of an instrument apart. Recording — the hot
// path, called per command, per slot, per queue transition — touches only
// pre-allocated atomics: Counter.Add and Gauge.Add are single atomic
// operations, Histogram.Observe is a branch-free binary search over a fixed
// bound table plus three atomic adds. Reading — Snapshot, WriteText — walks
// the same atomics without stopping writers, so a monitor goroutine (or a
// debug HTTP endpoint) can poll mid-workload; the view it gets is
// per-instrument consistent, not a cross-instrument atomic cut, which is the
// standard contract of scrape-based metrics.
//
// A Registry names instruments and hands out process-lifetime handles
// (get-or-create). Sharing one Registry across several replicated-log groups
// aggregates them for free: counters and histogram buckets sum because the
// groups add into the same atomics, and delta-maintained gauges (queue
// depths) sum the same way — which is exactly how the sharded layer exposes
// one stack-wide view without a merge step.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone event count. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, slots in flight) maintained
// by deltas, with a high-water mark. The zero value is ready to use.
//
// Maintaining gauges by Add rather than Set is what makes them shardable:
// several groups adding into one shared gauge yield the level of the whole
// fleet, and Peak is then the peak of that sum.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Add moves the gauge by delta and updates the high-water mark.
func (g *Gauge) Add(delta int64) {
	v := g.v.Add(delta)
	for {
		cur := g.peak.Load()
		if v <= cur || g.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Peak returns the highest level ever observed by Add.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// defaultBounds are the default latency bucket upper bounds: exponential
// (×2) from 1µs to ~34s — wide enough to span a sub-microsecond apply and a
// multi-second recovery round in one table. 26 buckets keeps the per-observe
// binary search at 5 probes.
func defaultBounds() []time.Duration {
	bounds := make([]time.Duration, 0, 26)
	for b := time.Microsecond; b <= 34*time.Second; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free and
// allocation-free; buckets are cumulative-upper-bound ("le") style, with one
// implicit overflow bucket above the last bound.
type Histogram struct {
	bounds []int64 // ascending inclusive upper bounds, in nanoseconds
	counts []atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bucket bounds
// (nil means the default exponential latency bounds, 1µs–34s).
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = defaultBounds()
	}
	ns := make([]int64, len(bounds))
	for i, b := range bounds {
		ns[i] = int64(b)
		if i > 0 && ns[i] <= ns[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: ns, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	// Binary search for the first bound >= v; the overflow bucket is
	// len(bounds). Hand-rolled so the record path allocates nothing.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets.
type HistogramSnapshot struct {
	// Count is the total observations (the sum of Counts).
	Count uint64
	// Sum is the sum of all observed values.
	Sum time.Duration
	// Max is the largest value ever observed.
	Max time.Duration
	// Bounds are the buckets' inclusive upper bounds; Counts[i] is the
	// number of observations ≤ Bounds[i] and > Bounds[i-1]. Counts has one
	// more element than Bounds: the overflow bucket.
	Bounds []time.Duration
	Counts []uint64
}

// Snapshot copies the histogram's current state. Concurrent Observe calls may
// land between bucket reads; the snapshot's Count is derived from the bucket
// copies, so quantiles stay internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Sum:    time.Duration(h.sum.Load()),
		Max:    time.Duration(h.max.Load()),
		Bounds: make([]time.Duration, len(h.bounds)),
		Counts: make([]uint64, len(h.counts)),
	}
	for i, b := range h.bounds {
		s.Bounds[i] = time.Duration(b)
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Mean returns the mean observed value (zero when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by linear interpolation
// inside the bucket holding it; the overflow bucket interpolates toward Max.
// Observations are whole nanoseconds in (lower, upper], so the interpolated
// position rounds up: a unit-valued histogram whose every observation is 1
// reads 1, not 0. Returns zero when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			cum += float64(c)
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lower := time.Duration(0)
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Max
			if i < len(s.Bounds) {
				upper = s.Bounds[i]
			}
			if upper < lower {
				upper = lower
			}
			frac := (target - cum) / float64(c)
			v := lower + time.Duration(math.Ceil(frac*float64(upper-lower)))
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}

// Registry names instruments and hands out get-or-create handles. The hot
// path never touches the registry: callers look their instruments up once and
// keep the pointers.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default latency bounds,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket bounds on first use (nil means the default latency bounds). The
// bounds matter only at creation: a later lookup of the same name — with
// different bounds, or through plain Histogram — returns the existing
// instrument unchanged, so every recorder of a series observes into one set
// of buckets. Bounds need not be durations semantically: a unit-valued
// series (the committer's batch-size histogram records commands per batch as
// 1ns units) works the same, it just reads in units instead of seconds.
func (r *Registry) HistogramWith(name string, bounds []time.Duration) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns every instrument's current value as a JSON-friendly map:
// counters as uint64, gauges as {current, peak}, histograms as
// {count, mean_ms, p50_ms, p90_ms, p99_ms, max_ms}. It is the expvar-shaped
// view (publish it with expvar.Func).
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	r.mu.Unlock()

	out := make(map[string]any, len(counters)+len(gauges)+len(histograms))
	for n, c := range counters {
		out[n] = c.Load()
	}
	for n, g := range gauges {
		out[n] = map[string]int64{"current": g.Load(), "peak": g.Peak()}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for n, h := range histograms {
		s := h.Snapshot()
		out[n] = map[string]any{
			"count":   s.Count,
			"mean_ms": ms(s.Mean()),
			"p50_ms":  ms(s.Quantile(0.50)),
			"p90_ms":  ms(s.Quantile(0.90)),
			"p99_ms":  ms(s.Quantile(0.99)),
			"max_ms":  ms(s.Max),
		}
	}
	return out
}

// WriteText renders every instrument in Prometheus text exposition style —
// counters and gauges as plain samples (gauges with a _peak companion),
// histograms as cumulative le-buckets with _sum/_count, durations in seconds
// — in stable name order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	counterNames := sortedKeys(r.counters)
	gaugeNames := sortedKeys(r.gauges)
	histNames := sortedKeys(r.histograms)
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	r.mu.Unlock()

	for _, n := range counterNames {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, counters[n].Load()); err != nil {
			return err
		}
	}
	for _, n := range gaugeNames {
		g := gauges[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n%s_peak %d\n", n, n, g.Load(), n, g.Peak()); err != nil {
			return err
		}
	}
	for _, n := range histNames {
		s := histograms[n].Snapshot()
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := uint64(0)
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", n, b.Seconds(), cum); err != nil {
				return err
			}
		}
		cum += s.Counts[len(s.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			n, cum, n, s.Sum.Seconds(), n, cum); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
