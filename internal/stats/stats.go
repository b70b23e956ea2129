// Package stats provides the statistical utilities used by the experiment
// harness: Pearson and Spearman correlation (the paper reports Pearson
// correlation between partitioning metrics and execution time), empirical
// CDFs (Figure 2), log-binned degree histograms (Figure 1) and summary
// statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples. It errors on mismatched lengths or fewer than two points, and
// returns 0 when either variable is constant (the correlation is
// undefined; 0 is the conventional harness-friendly answer).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Pearson length mismatch: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: Pearson needs at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation coefficient: Pearson
// correlation of the rank-transformed samples (ties receive their mean
// rank).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Spearman length mismatch: %d vs %d", len(xs), len(ys))
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the fractional ranks of xs (1-based; ties get mean rank).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		mean := float64(float64(i+j)/2) + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mean
		}
		i = j + 1
	}
	return ranks
}

// CDFPoint is one step of an empirical cumulative distribution function.
type CDFPoint struct {
	Value    float64
	Fraction float64 // P(X <= Value)
}

// CDF returns the empirical CDF of xs as sorted step points, one per
// distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var out []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[i] {
			j++
		}
		out = append(out, CDFPoint{Value: sorted[i], Fraction: float64(j+1) / n})
		i = j + 1
	}
	return out
}

// CDFAt evaluates an empirical CDF at value x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	lo, hi := 0, len(cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid].Value <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return cdf[lo-1].Fraction
}

// HistBin is one bin of a histogram over non-negative integer values.
type HistBin struct {
	Lo, Hi int64 // inclusive bounds
	Count  int64
}

// LogHistogram builds a base-2 logarithmically binned histogram of the
// given non-negative values: bins [0,0], [1,1], [2,3], [4,7], … — the
// standard presentation for degree distributions (Figure 1).
func LogHistogram(values []int64) []HistBin {
	var maxV int64
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	bins := []HistBin{{Lo: 0, Hi: 0}}
	for lo := int64(1); lo <= maxV; lo *= 2 {
		hi := lo*2 - 1
		bins = append(bins, HistBin{Lo: lo, Hi: hi})
	}
	for _, v := range values {
		if v < 0 {
			continue
		}
		var b int
		if v > 0 {
			b = 1 + int(math.Log2(float64(v)))
			// Guard against floating point edge cases at powers of two.
			for bins[b].Lo > v {
				b--
			}
			for bins[b].Hi < v {
				b++
			}
		}
		bins[b].Count++
	}
	return bins
}
