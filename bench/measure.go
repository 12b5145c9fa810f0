package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// reading is the process-wide cost counters at one instant.
type reading struct {
	at      time.Duration // since the run's origin
	mallocs uint64
	bytes   uint64
	cpu     time.Duration // user+sys of this process, load generator included
	gcs     uint32
	gcPause time.Duration
}

func takeReading(origin time.Time) reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return reading{
		at:      time.Since(origin),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// heapLiveMB is HeapInuse after a forced collection — two, so that what
// sync.Pool kept through the first is gone as well.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// percentile returns the p-th percentile (0..100) of sorted, by linear
// interpolation between ranks; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// stat is one reported number: the median of per-slice (or per-stall)
// values with their range, and how many raw samples are behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// medianOf summarises per-slice values; slices that had no data are skipped.
func medianOf(vals []float64, n int) stat {
	var kept []float64
	for _, v := range vals {
		if !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return stat{N: n}
	}
	s := sortedCopy(kept)
	return stat{Value: percentile(s, 50), Min: s[0], Max: s[len(s)-1], N: n}
}

func single(v float64, n int) stat { return stat{Value: v, Min: v, Max: v, N: n} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, NaN when b is zero (a slice with no committed op).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
