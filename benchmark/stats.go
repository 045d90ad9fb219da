package main

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"time"
)

// minBeyond is the sample floor of a tail percentile: p is reported only
// when at least this many samples lie beyond it, so the tail is measured,
// not extrapolated from a handful of points.
const minBeyond = 10

// rank is the nearest-rank position (1-based) of percentile p among n
// samples. Percentiles are integers, which keeps the floor rule free of
// floating-point rounding.
func rank(n, p int) int { return (p*n + 99) / 100 }

// measurable reports whether percentile p of n samples meets its floor: a
// median needs one sample, a tail percentile minBeyond samples beyond it.
func measurable(n, p int) bool {
	if n < 1 {
		return false
	}
	if p <= 50 {
		return true
	}
	return n-rank(n, p) >= minBeyond
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts) and whether it meets the sample floor.
func percentile(xs []float64, p int) (float64, bool) {
	if !measurable(len(xs), p) {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1], true
}

// Units used by the metric lines.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitUS    = "us"
	unitPerS  = "1/s"
	unitMiB   = "MiB"
	unitCount = "count"
	unitBytes = "bytes"
	unitRatio = "ratio"
)

// inUnit converts a duration to a float in one of the time units.
func inUnit(d time.Duration, unit string) float64 {
	switch unit {
	case unitS:
		return d.Seconds()
	case unitMS:
		return float64(d) / float64(time.Millisecond)
	case unitUS:
		return float64(d) / float64(time.Microsecond)
	}
	panic("benchmark: " + unit + " is not a time unit")
}

// metric is one named measurement. A metric below its sample floor is
// unmeasured: it prints as such and never enters a comparison.
type metric struct {
	Name     string
	Unit     string
	Value    float64
	N        int
	Measured bool
}

// formatValue prints the value with every digit it has, or "unmeasured".
func (m metric) formatValue() string {
	if !m.Measured {
		return "unmeasured"
	}
	return strconv.FormatFloat(m.Value, 'g', -1, 64)
}

// samples is an exact sample set in one unit, for the end-to-end metrics
// and the lower-rate layer calls.
type samples struct {
	unit string
	xs   []float64
}

func (s *samples) add(d time.Duration) { s.xs = append(s.xs, inUnit(d, s.unit)) }

// pct is the p-th percentile of the set as a metric named name.
func (s *samples) pct(name string, p int) metric {
	v, ok := percentile(append([]float64(nil), s.xs...), p)
	return metric{Name: name, Unit: s.unit, Value: v, N: len(s.xs), Measured: ok}
}

// The histogram keeps per-step call durations (nanoseconds) in fixed
// log-linear buckets: exact below 32 ns, then 16 buckets per octave, so a
// percentile read from it is within 1/32 of the true value and recording
// costs no allocation.
const (
	histExact   = 32
	histSub     = 16
	histBuckets = histExact + (64-5)*histSub
)

type hist struct {
	counts [histBuckets]uint64
	n      int
}

func bucketOf(ns int64) int {
	if ns < histExact {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // >= 5
	sub := int(uint64(ns)>>(e-4)) & (histSub - 1)
	return histExact + (e-5)*histSub + sub
}

// bucketMid is the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	e := 5 + (i-histExact)/histSub
	sub := (i - histExact) % histSub
	width := math.Ldexp(1, e-4)
	return float64(histSub+sub)*width + width/2
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// pct is the p-th percentile as a metric in unit, under the same floor
// rule as exact samples.
func (h *hist) pct(name, unit string, p int) metric {
	m := metric{Name: name, Unit: unit, N: h.n, Measured: measurable(h.n, p)}
	if !m.Measured {
		return m
	}
	want, seen := uint64(rank(h.n, p)), uint64(0)
	for i, c := range h.counts {
		if seen += c; seen >= want {
			m.Value = inUnit(time.Duration(bucketMid(i)), unit)
			break
		}
	}
	return m
}
