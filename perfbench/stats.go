package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is the fewest samples a reported percentile must have beyond it;
// a p90 therefore needs at least 100 samples.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count).  xs must be non-empty; it is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs.  It
// refuses when fewer than minTail samples lie beyond the quantile, because
// such a tail is a handful of outliers, not a percentile.
func percentile(xs []float64, q float64) (float64, error) {
	// The epsilon keeps q*n from rounding up past an exact rank (0.9*100).
	rank := int(math.Ceil(q*float64(len(xs)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := len(xs) - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			q*100, len(xs), beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stopwatch accumulates wall and CPU time over a series of timed intervals,
// so work done between intervals (digesting, accuracy bookkeeping) stays
// out of both totals.
type stopwatch struct {
	wall, cpu time.Duration
	t0        time.Time
	c0        time.Duration
}

func (s *stopwatch) start() {
	s.c0 = cpuTime()
	s.t0 = time.Now()
}

// stop closes the interval and returns its wall time.
func (s *stopwatch) stop() time.Duration {
	d := time.Since(s.t0)
	s.wall += d
	s.cpu += cpuTime() - s.c0
	return d
}
