package main

import (
	"math"
	"testing"
	"time"
)

func TestSampleFloor(t *testing.T) {
	for _, c := range []struct {
		n, p int
		want bool
	}{
		{0, 50, false}, {1, 50, true},
		{99, 90, false}, {100, 90, true},
		{199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
	} {
		if got := measurable(c.n, c.p); got != c.want {
			t.Errorf("measurable(%d, p%d) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 .. 1, unsorted on purpose
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 500}, {90, 900}, {99, 990}} {
		got, ok := percentile(xs, c.p)
		if !ok || got != c.want {
			t.Errorf("p%d = %v (measured %v), want %v", c.p, got, ok, c.want)
		}
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples is measured, want unmeasured (9 beyond)")
	}
}

func TestUnmeasuredMetricPrints(t *testing.T) {
	s := samples{unit: unitMS}
	for i := 0; i < 50; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	m := s.pct("x_ms_p99", 99)
	if m.Measured || m.formatValue() != "unmeasured" || m.N != 50 {
		t.Fatalf("p99 of 50 samples: %+v (%s)", m, m.formatValue())
	}
	if m := s.pct("x_ms_p50", 50); !m.Measured || m.Value != 24 || m.Unit != unitMS {
		t.Fatalf("p50: %+v", m)
	}
}

func TestInUnit(t *testing.T) {
	d := 1500 * time.Microsecond
	if inUnit(d, unitS) != 0.0015 || inUnit(d, unitMS) != 1.5 || inUnit(d, unitUS) != 1500 {
		t.Fatalf("inUnit(%v): %v s, %v ms, %v us", d, inUnit(d, unitS), inUnit(d, unitMS), inUnit(d, unitUS))
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h hist
	for i := 1; i <= 100_000; i++ {
		h.add(time.Duration(i)) // 1 .. 100000 ns
	}
	for _, p := range []int{50, 90, 99} {
		m := h.pct("x", unitUS, p)
		want := float64(p) * 1000 / 1000 // p% of 100 µs
		if !m.Measured || math.Abs(m.Value-want)/want > 1.0/32 {
			t.Errorf("p%d = %v us, want %v within 1/32", p, m.Value, want)
		}
	}
	var small hist
	small.add(time.Second)
	if m := small.pct("x", unitUS, 99); m.Measured {
		t.Errorf("p99 of one sample is measured: %+v", m)
	}
	for _, ns := range []int64{0, 1, 31, 32, 33, 1 << 20, math.MaxInt64} {
		if i := bucketOf(ns); i < 0 || i >= histBuckets {
			t.Errorf("bucketOf(%d) = %d out of range", ns, i)
		}
		if ns >= 32 && ns < 1<<40 {
			if mid := bucketMid(bucketOf(ns)); math.Abs(mid-float64(ns))/float64(ns) > 1.0/16 {
				t.Errorf("bucketMid(bucketOf(%d)) = %v", ns, mid)
			}
		}
	}
}
