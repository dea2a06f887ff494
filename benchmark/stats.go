package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: with fewer, one outlier moves it.
const tailBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs and
// whether at least tailBeyond samples lie strictly above its rank. xs
// need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= tailBeyond
}

// minSamplesFor is the smallest sample count at which percentile p has
// tailBeyond samples beyond it.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if _, ok := percentile(make([]float64, n), p); ok {
			return n
		}
	}
}

// quartiles returns the first quartile, median and third quartile of
// xs with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), the spread rule the benchmark's
// bounds are checked with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// The same integer arithmetic as CPython, clamping included.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is the Go runtime's cumulative allocation and GC record.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, gcPause: time.Duration(m.PauseTotalNs)}
}
