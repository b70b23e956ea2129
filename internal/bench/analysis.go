package bench

import (
	"fmt"
	"sort"

	"cutfit/internal/stats"
)

// CorrelationPoint is one point of a Figure 3–6 scatter: a (metric value,
// execution time) pair for one dataset+strategy cell.
type CorrelationPoint struct {
	Dataset  string
	Strategy string
	Metric   float64
	SimSecs  float64
}

// CorrelationSeries is the scatter and coefficient for one configuration,
// i.e. one panel of Figures 3–6.
type CorrelationSeries struct {
	Config string
	Metric string
	Points []CorrelationPoint
	// Pearson is the correlation between metric and simulated time across
	// all points, so it reflects both cross-dataset scaling and
	// within-dataset strategy effects, as in the paper's figures.
	Pearson float64
	// Spearman is the rank correlation.
	Spearman float64
}

// Correlate builds the correlation series for the given partitioning
// metric ("CommCost", "Cut", ...) and configuration name.
func (r *Result) Correlate(metricName, configName string) (*CorrelationSeries, error) {
	s := &CorrelationSeries{Config: configName, Metric: metricName}
	for _, run := range r.Runs {
		if run.Config != configName {
			continue
		}
		mv, err := run.Metrics.MetricByName(metricName)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, CorrelationPoint{
			Dataset:  run.Dataset,
			Strategy: run.Strategy,
			Metric:   mv,
			SimSecs:  run.SimSecs,
		})
	}
	if len(s.Points) < 2 {
		return nil, fmt.Errorf("bench: config %q has %d points, need at least 2", configName, len(s.Points))
	}
	xs := make([]float64, len(s.Points))
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = p.Metric
		ys[i] = p.SimSecs
	}
	var err error
	s.Pearson, err = stats.Pearson(xs, ys)
	if err != nil {
		return nil, err
	}
	s.Spearman, err = stats.Spearman(xs, ys)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// PerDatasetCorrelation computes, for one configuration, the Pearson
// correlation between the metric and simulated time *within* each dataset
// (across strategies only). This isolates the strategy effect from dataset
// scale.
func (r *Result) PerDatasetCorrelation(metricName, configName string) (map[string]float64, error) {
	byDS := map[string][]Run{}
	for _, run := range r.Runs {
		if run.Config == configName {
			byDS[run.Dataset] = append(byDS[run.Dataset], run)
		}
	}
	out := make(map[string]float64, len(byDS))
	for ds, runs := range byDS {
		if len(runs) < 2 {
			continue
		}
		xs := make([]float64, len(runs))
		ys := make([]float64, len(runs))
		for i, run := range runs {
			mv, err := run.Metrics.MetricByName(metricName)
			if err != nil {
				return nil, err
			}
			xs[i] = mv
			ys[i] = run.SimSecs
		}
		p, err := stats.Pearson(xs, ys)
		if err != nil {
			return nil, err
		}
		out[ds] = p
	}
	return out, nil
}

// Winner identifies the fastest strategy for one dataset under one config.
type Winner struct {
	Dataset  string
	Config   string
	Strategy string
	SimSecs  float64
	// RunnerUp and Gap describe how close the decision was: Gap is
	// (runnerUp - winner) / winner.
	RunnerUp string
	Gap      float64
}

// Winners returns the fastest strategy per (config, dataset), sorted by
// config then dataset.
func (r *Result) Winners() []Winner {
	type key struct{ cfg, ds string }
	best := map[key]Run{}
	second := map[key]Run{}
	for _, run := range r.Runs {
		k := key{run.Config, run.Dataset}
		b, ok := best[k]
		switch {
		case !ok || run.SimSecs < b.SimSecs:
			if ok {
				second[k] = b
			}
			best[k] = run
		default:
			if s, ok2 := second[k]; !ok2 || run.SimSecs < s.SimSecs {
				second[k] = run
			}
		}
	}
	out := make([]Winner, 0, len(best))
	for k, run := range best {
		w := Winner{Dataset: k.ds, Config: k.cfg, Strategy: run.Strategy, SimSecs: run.SimSecs}
		if s, ok := second[k]; ok {
			w.RunnerUp = s.Strategy
			if run.SimSecs > 0 {
				w.Gap = (s.SimSecs - run.SimSecs) / run.SimSecs
			}
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Config != out[j].Config {
			return out[i].Config < out[j].Config
		}
		return out[i].Dataset < out[j].Dataset
	})
	return out
}

// GranularitySpeedup returns, per dataset, the ratio of best config-i time
// to best config-ii time (values > 1 mean the fine-grain configuration is
// faster, as the paper reports for CC and TR on large datasets).
func (r *Result) GranularitySpeedup(coarse, fine string) map[string]float64 {
	bestBy := func(cfg string) map[string]float64 {
		out := map[string]float64{}
		for _, run := range r.Runs {
			if run.Config != cfg {
				continue
			}
			if cur, ok := out[run.Dataset]; !ok || run.SimSecs < cur {
				out[run.Dataset] = run.SimSecs
			}
		}
		return out
	}
	c := bestBy(coarse)
	f := bestBy(fine)
	out := map[string]float64{}
	for ds, ct := range c {
		if ft, ok := f[ds]; ok && ft > 0 {
			out[ds] = ct / ft
		}
	}
	return out
}
