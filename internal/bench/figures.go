package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cutfit/internal/cluster"
	"cutfit/internal/datasets"
	"cutfit/internal/stats"
)

// DegreeDistribution is the Figure 1 data for one dataset: log-binned
// in-degree and out-degree histograms.
type DegreeDistribution struct {
	Dataset string
	In      []stats.HistBin
	Out     []stats.HistBin
}

// Figure1Degrees computes the in/out degree distributions of the datasets.
func Figure1Degrees(specs []datasets.Spec) ([]DegreeDistribution, error) {
	out := make([]DegreeDistribution, 0, len(specs))
	for _, spec := range specs {
		g, err := spec.BuildCached()
		if err != nil {
			return nil, err
		}
		inDeg := g.InDegrees()
		outDeg := g.OutDegrees()
		in64 := make([]int64, len(inDeg))
		out64 := make([]int64, len(outDeg))
		for i := range inDeg {
			in64[i] = int64(inDeg[i])
			out64[i] = int64(outDeg[i])
		}
		out = append(out, DegreeDistribution{
			Dataset: spec.Name,
			In:      stats.LogHistogram(in64),
			Out:     stats.LogHistogram(out64),
		})
	}
	return out, nil
}

// RatioCDF is the Figure 2 data for one dataset: the CDF of the
// out-degree / in-degree ratio over all vertices (vertices with zero
// in-degree are assigned the conventional ratio of +inf and reported in
// the InfFraction field instead of the CDF itself).
type RatioCDF struct {
	Dataset     string
	CDF         []stats.CDFPoint
	InfFraction float64
}

// Figure2RatioCDF computes the out/in degree ratio CDFs.
func Figure2RatioCDF(specs []datasets.Spec) ([]RatioCDF, error) {
	out := make([]RatioCDF, 0, len(specs))
	for _, spec := range specs {
		g, err := spec.BuildCached()
		if err != nil {
			return nil, err
		}
		inDeg := g.InDegrees()
		outDeg := g.OutDegrees()
		var ratios []float64
		inf := 0
		for i := range inDeg {
			if inDeg[i] == 0 {
				inf++
				continue
			}
			ratios = append(ratios, float64(outDeg[i])/float64(inDeg[i]))
		}
		rc := RatioCDF{Dataset: spec.Name, CDF: stats.CDF(ratios)}
		if n := len(inDeg); n > 0 {
			rc.InfFraction = float64(inf) / float64(n)
		}
		out = append(out, rc)
	}
	return out, nil
}

// WriteRatioCDF renders selected quantiles of the Figure 2 CDFs.
func WriteRatioCDF(w io.Writer, cdfs []RatioCDF) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tP(r<=0.5)\tP(r<=1)\tP(r<=2)\tP(r<=10)\tInf%")
	for _, rc := range cdfs {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\n",
			rc.Dataset,
			stats.CDFAt(rc.CDF, 0.5), stats.CDFAt(rc.CDF, 1),
			stats.CDFAt(rc.CDF, 2), stats.CDFAt(rc.CDF, 10),
			rc.InfFraction*100)
	}
	return tw.Flush()
}

// InfraResult is the §4 infrastructure experiment: PageRank on the largest
// dataset under configurations (ii), (iii) and (iv).
type InfraResult struct {
	Dataset  string
	Strategy string
	// SecsII, SecsIII, SecsIV are the simulated times under each config
	// with the best (2D) strategy.
	SecsII, SecsIII, SecsIV float64
	// ReductionIII and ReductionIV are the fractional improvements over
	// configuration (ii); the paper reports ≈15% and ≈20%. At this
	// repository's 1/100 analog scale the reductions are larger (the runs
	// are more communication-dominated than the originals); the ordering
	// (iv > iii > 0) is the reproduced shape.
	ReductionIII, ReductionIV float64
	// SpreadII/III/IV quantify the paper's conclusion that "selecting a
	// good partitioner has a bigger impact on performance for better
	// infrastructure": (worst strategy − best strategy) / best strategy
	// per configuration. The spread must grow from (ii) to (iv).
	SpreadII, SpreadIII, SpreadIV float64
}

// infraStrategy is the strategy the upgrade reductions follow: the paper's
// best for PageRank.
const infraStrategy = "2D"

// Infra reduces a result on InfraExperiment's grid (its dataset and
// strategies may be restricted, as long as 2D stays) to the upgrade
// reductions and the partitioner-impact spreads.
func (r *Result) Infra() (*InfraResult, error) {
	configs := []string{cluster.ConfigII().Name, cluster.ConfigIII().Name, cluster.ConfigIV().Name}
	var best, spread [3]float64
	for i, cfg := range configs {
		minT, maxT := 0.0, 0.0
		for _, run := range r.Runs {
			if run.Config != cfg {
				continue
			}
			t := run.SimSecs
			if run.Strategy == infraStrategy {
				best[i] = t
			}
			if minT == 0 || t < minT {
				minT = t
			}
			if t > maxT {
				maxT = t
			}
		}
		if best[i] == 0 {
			return nil, fmt.Errorf("bench: the infrastructure result has no %s run under %s", infraStrategy, cfg)
		}
		spread[i] = (maxT - minT) / minT
	}
	return &InfraResult{
		Dataset:      r.Runs[0].Dataset,
		Strategy:     infraStrategy,
		SecsII:       best[0],
		SecsIII:      best[1],
		SecsIV:       best[2],
		ReductionIII: (best[0] - best[1]) / best[0],
		ReductionIV:  (best[0] - best[2]) / best[0],
		SpreadII:     spread[0], SpreadIII: spread[1], SpreadIV: spread[2],
	}, nil
}

// WriteInfra renders the infrastructure experiment result.
func WriteInfra(w io.Writer, r *InfraResult) error {
	if _, err := fmt.Fprintf(w,
		"PageRank on %s (%s): config(ii)=%.4fs  config(iii)=%.4fs (-%.1f%%)  config(iv)=%.4fs (-%.1f%%)\n",
		r.Dataset, r.Strategy, r.SecsII, r.SecsIII, 100*r.ReductionIII, r.SecsIV, 100*r.ReductionIV); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"partitioner impact (worst vs best strategy): config(ii)=+%.1f%%  config(iii)=+%.1f%%  config(iv)=+%.1f%%\n",
		100*r.SpreadII, 100*r.SpreadIII, 100*r.SpreadIV)
	return err
}
