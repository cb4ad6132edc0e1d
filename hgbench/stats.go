package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail value.
const minBeyond = 10

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples strictly after its nearest-rank position, together
// with its value and how many samples lie beyond it. With too few
// samples for any rung it returns the maximum at percentile 100.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 100, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		if k := nearestRank(p, n); n-1-k >= minBeyond {
			return s[k], p, n - 1 - k
		}
	}
	return s[n-1], 100, 0
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))]
}

// nearestRank is the 0-based index of the nearest-rank p-th percentile
// of n sorted samples.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n)))-1, 0)
}

// split cuts xs into n consecutive parts of equal length (the last
// len(xs) % n samples are dropped).
func split(xs []float64, n int) [][]float64 {
	size := len(xs) / n
	parts := make([][]float64, n)
	for i := range parts {
		parts[i] = xs[i*size : (i+1)*size]
	}
	return parts
}

// medianOf applies f to every part and returns the median of the
// results.
func medianOf(parts [][]float64, f func([]float64) float64) float64 {
	vs := make([]float64, len(parts))
	for i, p := range parts {
		vs[i] = f(p)
	}
	return median(vs)
}

// windowRates cuts [0, total) into n equal windows and returns, for
// each, the events at offsets at within it per second.
func windowRates(at []time.Duration, total time.Duration, n int) []float64 {
	w := total / time.Duration(n)
	counts := make([]float64, n)
	if w <= 0 {
		return counts
	}
	for _, t := range at {
		counts[min(int(t/w), n-1)]++
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}

// unattributed is the share of an untraced end-to-end time that the
// traced layer times do not cover: 1 − covered/e2e. It is negative when
// the layers, measured in process, add up to more than the real run.
func unattributed(e2e, covered float64) float64 {
	if e2e <= 0 {
		return 0
	}
	return 1 - covered/e2e
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mib converts a getrusage maxrss (KiB on Linux) to MiB.
func mib(maxrssKiB int64) float64 { return float64(maxrssKiB) / 1024 }
