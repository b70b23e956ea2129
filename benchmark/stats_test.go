package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 1, 50},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := map[int]float64{
		0: 0, 10: 0, 19: 0, // even the median has fewer than ten beyond it
		20: 50, 39: 50,
		40: 75, 99: 75,
		100: 90, 199: 90,
		200: 95, 999: 95,
		1000: 99, 9999: 99,
		10000: 99.9,
	}
	for n, want := range cases {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}
