package core

import (
	"fmt"
	"math"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/store"
)

// Predictor is a fitted linear model time ≈ Intercept + Slope·metric. The
// paper establishes that a single partitioning metric predicts execution
// time per algorithm class (CommCost for edge-bound algorithms, Cut for
// vertex-state-bound ones); a Predictor makes that observation executable:
// fit it on a few measured runs, then rank candidate partitionings without
// running them.
type Predictor struct {
	// Metric is the partitioning metric this model consumes.
	Metric string
	// Intercept and Slope are the least-squares coefficients.
	Intercept, Slope float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// N is the number of training points.
	N int
}

// FitPredictor fits the model by ordinary least squares on paired samples
// of metric values and measured execution times (seconds).
func FitPredictor(metricName string, metricValues, timesSecs []float64) (*Predictor, error) {
	n := len(metricValues)
	if n != len(timesSecs) {
		return nil, fmt.Errorf("core: predictor training length mismatch: %d vs %d", n, len(timesSecs))
	}
	if n < 2 {
		return nil, fmt.Errorf("core: predictor needs at least 2 training points, got %d", n)
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += metricValues[i]
		sy += timesSecs[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := metricValues[i]-mx, timesSecs[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return nil, fmt.Errorf("core: predictor training metric is constant")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	p := &Predictor{Metric: metricName, Intercept: intercept, Slope: slope, N: n}
	if syy > 0 {
		var ssRes float64
		for i := 0; i < n; i++ {
			r := timesSecs[i] - p.Predict(metricValues[i])
			ssRes += r * r
		}
		p.R2 = 1 - ssRes/syy
	} else {
		p.R2 = 1
	}
	return p, nil
}

// Predict returns the estimated execution time for a metric value.
func (p *Predictor) Predict(metricValue float64) float64 {
	return p.Intercept + p.Slope*metricValue
}

// Correlation returns the signed correlation implied by the fit
// (sign of the slope times sqrt of R²).
func (p *Predictor) Correlation() float64 {
	r := math.Sqrt(math.Max(0, p.R2))
	if p.Slope < 0 {
		return -r
	}
	return r
}

// String summarizes the fitted model.
func (p *Predictor) String() string {
	return fmt.Sprintf("time ≈ %.4g + %.4g·%s (R²=%.3f, n=%d)", p.Intercept, p.Slope, p.Metric, p.R2, p.N)
}

// RankByPrediction orders candidate partitionings (by name) from fastest
// to slowest predicted execution time, given their measured metric sets.
func (p *Predictor) RankByPrediction(candidates map[string]*metrics.Result) ([]string, error) {
	type scored struct {
		name string
		t    float64
	}
	out := make([]scored, 0, len(candidates))
	for name, m := range candidates {
		v, err := m.MetricByName(p.Metric)
		if err != nil {
			return nil, err
		}
		out = append(out, scored{name, p.Predict(v)})
	}
	// Insertion sort with name tiebreak: deterministic for map input.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.t < a.t || (b.t == a.t && b.name < a.name) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	names := make([]string, len(out))
	for i, s := range out {
		names[i] = s.name
	}
	return names, nil
}

// GranularityAdvice recommends a partition count following §4's findings.
type GranularityAdvice struct {
	NumPartitions int
	Reason        string
}

// AdviseGranularity applies the paper's granularity heuristics: PageRank
// is communication-bound and prefers the coarse configuration; convergent
// (CC) and per-vertex-heavy (TR) algorithms prefer fine granularity on
// large datasets because partitions become load-imbalanced in *useful
// work* as vertices converge; SSSP is insensitive. coarse and fine are the
// candidate partition counts (the paper's 128 and 256).
func AdviseGranularity(p Profile, f GraphFacts, coarse, fine int, cfg AdvisorConfig) GranularityAdvice {
	if cfg.LargeEdgeThreshold <= 0 {
		cfg = DefaultAdvisorConfig()
	}
	large := f.Edges >= cfg.LargeEdgeThreshold
	switch {
	case !p.EdgeBound:
		if large {
			return GranularityAdvice{fine,
				"per-vertex-heavy computation on a large dataset: fine granularity reduces the straggler partition (paper: up to 40% on Orkut)"}
		}
		return GranularityAdvice{fine,
			"per-vertex-heavy computation: fine granularity consistently outperforms coarse for Triangle Count"}
	case p.IterationsScaleWithDiameter:
		if large {
			return GranularityAdvice{fine,
				"convergent algorithm on a large dataset: converged vertices make equal-size partitions time-imbalanced; fine granularity rebalances (paper: up to 22%)"}
		}
		return GranularityAdvice{coarse,
			"convergent algorithm on a small dataset: differences are in the noise; coarse avoids per-partition overheads"}
	default:
		return GranularityAdvice{coarse,
			"communication-bound fixed-iteration algorithm: finer partitioning only adds replication and communication (paper: PageRank slows down at 256)"}
	}
}

// TrainPredictor measures every candidate strategy's metrics on g through
// the artifact store st — so training after (or racing) an empirical
// selection over the same graph re-measures nothing — and fits a predictor
// from the provided (strategy name → measured seconds) samples; strategies
// without a time sample contribute metrics only. It returns the fitted
// predictor and the per-strategy metric sets, ready for RankByPrediction.
func TrainPredictor(st *store.Store, g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile, timesByStrategy map[string]float64) (*Predictor, map[string]*metrics.Result, error) {
	if len(timesByStrategy) < 2 {
		return nil, nil, fmt.Errorf("core: need at least 2 timed strategies, got %d", len(timesByStrategy))
	}
	measured, err := measureCandidates(st, g, candidates, numParts)
	if err != nil {
		return nil, nil, err
	}
	results := make(map[string]*metrics.Result, len(candidates))
	var xs, ys []float64
	for i, s := range candidates {
		// Results and time samples are keyed by partition.KeyOf — the
		// strategy name except for parameterized variants (Hybrid:<t>,
		// HDRF:<λ>), which must not alias one row or one time sample.
		key := partition.KeyOf(s)
		m := measured[i]
		results[key] = m
		t, ok := timesByStrategy[key]
		if !ok {
			continue
		}
		v, err := m.MetricByName(p.Metric)
		if err != nil {
			return nil, nil, err
		}
		xs = append(xs, v)
		ys = append(ys, t)
	}
	pred, err := FitPredictor(p.Metric, xs, ys)
	if err != nil {
		return nil, nil, err
	}
	return pred, results, nil
}
