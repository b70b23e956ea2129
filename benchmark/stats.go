package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates highestPercentile chooses from, each
// with the share of samples beyond it in thousandths (integers, so that
// "exactly ten beyond" is not lost to rounding).
var tailPercentiles = []struct {
	p            float64
	beyondPer1e3 int
}{{50, 500}, {75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// highestPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it — above that a tail figure is one or
// two observations, not a measurement. It returns 0 when even the median
// has fewer than ten samples beyond it (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, c := range tailPercentiles {
		if n*c.beyondPer1e3 >= 10*1000 {
			best = c.p
		}
	}
	return best
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
