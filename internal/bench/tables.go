package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cutfit/internal/datasets"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
)

// CharacterizationRow is one row of Table 1: the measured statistics of an
// analog dataset next to the paper's original numbers.
type CharacterizationRow struct {
	Name     string
	Measured graph.Stats
	Paper    datasets.PaperRow
}

// Characterize builds Table 1 for the given dataset specs.
func Characterize(specs []datasets.Spec) ([]CharacterizationRow, error) {
	rows := make([]CharacterizationRow, 0, len(specs))
	for _, spec := range specs {
		g, err := spec.BuildCached()
		if err != nil {
			return nil, err
		}
		rows = append(rows, CharacterizationRow{
			Name:     spec.Name,
			Measured: g.Characterize(8, 0xD1A),
			Paper:    spec.Paper,
		})
	}
	return rows, nil
}

// WriteCharacterization renders Table 1 as text.
func WriteCharacterization(w io.Writer, rows []CharacterizationRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tVertices\tEdges\tSymm%\tZeroIn%\tZeroOut%\tTriangles\tConn.Comp.\tDiameter")
	for _, r := range rows {
		diam := fmt.Sprintf("%d", r.Measured.Diameter)
		if r.Measured.DiameterInfinite {
			diam = "inf"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.2f\t%d\t%d\t%s\n",
			r.Name, r.Measured.Vertices, r.Measured.Edges,
			r.Measured.SymmetryPct, r.Measured.ZeroInPct, r.Measured.ZeroOutPct,
			r.Measured.Triangles, r.Measured.Components, diam)
	}
	return tw.Flush()
}

// MetricsRow is one row of Tables 2/3: the metric set for one dataset and
// strategy at a fixed partition count.
type MetricsRow struct {
	Dataset  string
	Strategy string
	Metrics  *metrics.Result
}

// MetricsTable builds Tables 2 (numParts=128) and 3 (numParts=256): the
// full partitioning-metric characterization of every dataset × strategy.
func MetricsTable(specs []datasets.Spec, strategies []partition.Strategy, numParts int) ([]MetricsRow, error) {
	rows := make([]MetricsRow, 0, len(specs)*len(strategies))
	for _, spec := range specs {
		g, err := spec.BuildCached()
		if err != nil {
			return nil, err
		}
		for _, s := range strategies {
			a, err := partition.Assign(g, s, numParts)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, s.Name(), err)
			}
			m, err := metrics.FromAssignment(a)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, s.Name(), err)
			}
			rows = append(rows, MetricsRow{Dataset: spec.Name, Strategy: s.Name(), Metrics: m})
		}
	}
	return rows, nil
}

// WriteMetricsTable renders a metrics table in the layout of the paper's
// Tables 2 and 3.
func WriteMetricsTable(w io.Writer, rows []MetricsRow, numParts int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Partitioning metrics for %d partitions\n", numParts)
	fmt.Fprintln(tw, "Dataset\tPartitioner\tBalance\tNonCut\tCut\tCommCost\tPartStDev")
	for _, r := range rows {
		m := r.Metrics
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%d\t%d\t%d\t%.2f\n",
			r.Dataset, r.Strategy, m.Balance, m.NonCut, m.Cut, m.CommCost, m.PartStDev)
	}
	return tw.Flush()
}

// WriteCorrelation renders a Figure 3–6 panel: the scatter points plus the
// correlation coefficients.
func WriteCorrelation(w io.Writer, s *CorrelationSeries) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Correlation of %s with simulated execution time (%s)\n", s.Metric, s.Config)
	fmt.Fprintln(tw, "Dataset\tStrategy\tMetric\tSimSecs")
	for _, p := range s.Points {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.4f\n", p.Dataset, p.Strategy, p.Metric, p.SimSecs)
	}
	fmt.Fprintf(tw, "Pearson r = %.3f  (Spearman rho = %.3f)\n", s.Pearson, s.Spearman)
	return tw.Flush()
}

// WriteWinners renders the best-strategy table (§4 prose).
func WriteWinners(w io.Writer, winners []Winner) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Config\tDataset\tBest\tSimSecs\tRunnerUp\tGap%")
	for _, win := range winners {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%s\t%.1f\n",
			win.Config, win.Dataset, win.Strategy, win.SimSecs, win.RunnerUp, win.Gap*100)
	}
	return tw.Flush()
}
