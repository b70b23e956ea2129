package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cutfit/internal/algorithms"
	"cutfit/internal/bench"
	"cutfit/internal/datasets"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/stats"
)

// paper is one `cutfit paper` invocation: where it prints, and the grid and
// extras its flags choose.
type paper struct {
	w          io.Writer
	dataset    *datasets.Spec       // nil: each artifact's own datasets
	strategies []partition.Strategy // nil: the paper's six
	parts      int
	figures    []bench.Figure
	metric     string // "": each figure's algorithm's predictive metric
	winners    bool
	plot       bool
	csv        string
}

// paperArtifacts are the artifacts in the order `paper all` prints them.
var paperArtifacts = []struct {
	name string
	run  func(*paper) error
}{
	{"table1", (*paper).table1},
	{"fig1", (*paper).fig1},
	{"fig2", (*paper).fig2},
	{"tables", (*paper).tables},
	{"figure", (*paper).figure},
	{"infra", (*paper).infra},
}

// cmdPaper regenerates one of the paper's artifacts, or all of them, from
// the dataset analogs. Every name is resolved before anything runs.
func cmdPaper(w io.Writer, args []string) error {
	artifact := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		artifact, args = args[0], args[1:]
	}
	figureAlgs := make([]string, len(bench.Figures))
	for i, f := range bench.Figures {
		figureAlgs[i] = f.Alg
	}
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	dataset := fs.String("dataset", "", "run every artifact on this one analog dataset instead of its default set")
	strategies := fs.String("strategies", "", "comma-separated strategies replacing the paper's six (any names StrategyByName accepts)")
	parts := fs.Int("parts", 128, "tables: the partition count (128 = Table 2, 256 = Table 3)")
	alg := fs.String("alg", "", "figure: run only this algorithm's figure, one of "+strings.Join(figureAlgs, ", ")+" (default: all four)")
	metric := fs.String("metric", "", "figure: the partitioning metric to correlate (default: the algorithm's predictive metric)")
	winners := fs.Bool("winners", false, "figure: also print the best strategy per (config, dataset)")
	plot := fs.Bool("plot", false, "figure: also draw each panel as an ASCII scatter plot")
	csvOut := fs.String("csv", "", "figure: also write each panel's points to <prefix>.<config>.csv (needs -alg)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("paper: unexpected argument %q (the artifact comes before the flags)", fs.Arg(0))
	}

	var run []func(*paper) error
	names := make([]string, len(paperArtifacts))
	for i, a := range paperArtifacts {
		if artifact == a.name || artifact == "all" {
			run = append(run, a.run)
		}
		names[i] = a.name
	}
	if len(run) == 0 {
		return fmt.Errorf("paper: unknown artifact %q (want %s or all)", artifact, strings.Join(names, ", "))
	}
	p := &paper{w: w, parts: *parts, figures: bench.Figures, metric: *metric, winners: *winners, plot: *plot, csv: *csvOut}
	if *dataset != "" {
		spec, err := datasets.ByName(*dataset)
		if err != nil {
			return err
		}
		p.dataset = &spec
	}
	if *strategies != "" {
		var err error
		if p.strategies, err = partition.ByNames(*strategies); err != nil {
			return err
		}
	}
	if *alg != "" {
		f, err := bench.FigureOf(*alg)
		if err != nil {
			return err
		}
		p.figures = []bench.Figure{f}
	}
	if *metric != "" {
		if _, err := new(metrics.Result).MetricByName(*metric); err != nil {
			return err
		}
	}
	if *csvOut != "" && len(p.figures) != 1 {
		return fmt.Errorf("paper: -csv needs -alg: one figure's panels share the file prefix")
	}
	for _, r := range run {
		if err := r(p); err != nil {
			return err
		}
	}
	return nil
}

// specs returns the datasets of a Suite-wide artifact.
func (p *paper) specs() []datasets.Spec {
	if p.dataset != nil {
		return []datasets.Spec{*p.dataset}
	}
	return datasets.Suite()
}

// restrict applies -dataset and -strategies to an experiment's grid.
func (p *paper) restrict(e *bench.Experiment) {
	if p.dataset != nil {
		e.Datasets = []datasets.Spec{*p.dataset}
	}
	if p.strategies != nil {
		e.Strategies = p.strategies
	}
}

// table1 prints Table 1, the structural statistics of the analogs, with the
// paper's originals beneath.
func (p *paper) table1() error {
	fmt.Fprintln(p.w, "=== Table 1: dataset characterization (measured on analogs) ===")
	rows, err := bench.Characterize(p.specs())
	if err != nil {
		return err
	}
	if err := bench.WriteCharacterization(p.w, rows); err != nil {
		return err
	}
	fmt.Fprintln(p.w)
	fmt.Fprintln(p.w, "Paper originals for comparison:")
	for _, r := range rows {
		o := r.Paper
		diam := fmt.Sprintf("%d", o.Diameter)
		if o.DiameterInfinite {
			diam = "inf"
		}
		fmt.Fprintf(p.w, "  %-16s V=%-10d E=%-11d symm=%.2f%% zeroIn=%.2f%% zeroOut=%.2f%% triangles=%d comps=%d diam=%s\n",
			r.Name, o.Vertices, o.Edges, o.SymmetryPct, o.ZeroInPct, o.ZeroOutPct,
			o.Triangles, o.Components, diam)
	}
	fmt.Fprintln(p.w)
	return nil
}

// fig1 prints Figure 1, the log-binned in- and out-degree distributions.
func (p *paper) fig1() error {
	fmt.Fprintln(p.w, "=== Figure 1: in/out degree distributions (log-binned) ===")
	dists, err := bench.Figure1Degrees(p.specs())
	if err != nil {
		return err
	}
	for _, d := range dists {
		fmt.Fprintf(p.w, "%s in-degree:\n", d.Dataset)
		if err := p.histogram(d.In); err != nil {
			return err
		}
		fmt.Fprintf(p.w, "%s out-degree:\n", d.Dataset)
		if err := p.histogram(d.Out); err != nil {
			return err
		}
	}
	fmt.Fprintln(p.w)
	return nil
}

func (p *paper) histogram(bins []stats.HistBin) error {
	var labels []string
	var counts []int64
	for _, b := range bins {
		if b.Count == 0 {
			continue
		}
		labels = append(labels, fmt.Sprintf("[%d..%d]", b.Lo, b.Hi))
		counts = append(counts, b.Count)
	}
	return writeHistogram(p.w, labels, counts, 50)
}

// fig2 prints Figure 2, quantiles of the out/in degree ratio CDF.
func (p *paper) fig2() error {
	fmt.Fprintln(p.w, "=== Figure 2: CDF of out-degree / in-degree ratio ===")
	cdfs, err := bench.Figure2RatioCDF(p.specs())
	if err != nil {
		return err
	}
	return bench.WriteRatioCDF(p.w, cdfs)
}

// tables prints Tables 2 and 3: the §3.1 metrics of every dataset ×
// strategy at -parts partitions, one assignment pass each.
func (p *paper) tables() error {
	strats := p.strategies
	if strats == nil {
		strats = partition.All()
	}
	fmt.Fprintln(p.w, "=== Partitioning characterization (one Assign pass per strategy) ===")
	rows, err := bench.MetricsTable(p.specs(), strats, p.parts)
	if err != nil {
		return err
	}
	return bench.WriteMetricsTable(p.w, rows, p.parts)
}

// figure prints Figures 3–6 (or -alg's): per configuration the correlation
// of the metric with simulated time, the granularity comparison and, on
// request, the winners, the scatter plots and the CSV files — all from one
// run of the experiment.
func (p *paper) figure() error {
	for _, f := range p.figures {
		metric := p.metric
		if metric == "" {
			entry, err := algorithms.Lookup(f.Alg)
			if err != nil {
				return err
			}
			metric = entry.Profile.Metric
		}
		fmt.Fprintf(p.w, "=== %s: execution time vs %s ===\n", f.Title, metric)
		e := f.Experiment()
		p.restrict(&e)
		res, err := e.Run(context.Background())
		if err != nil {
			return err
		}
		panels := make([]*bench.CorrelationSeries, len(e.Configs))
		for i, cfg := range e.Configs {
			if panels[i], err = res.Correlate(metric, cfg.Name); err != nil {
				return err
			}
			if err := bench.WriteCorrelation(p.w, panels[i]); err != nil {
				return err
			}
			per, err := res.PerDatasetCorrelation(metric, cfg.Name)
			if err != nil {
				return err
			}
			fmt.Fprintf(p.w, "Within-dataset correlation (%s):", cfg.Name)
			p.perDataset(per)
			fmt.Fprintln(p.w)
		}
		coarse, fine := e.Configs[0].Name, e.Configs[1].Name
		fmt.Fprintf(p.w, "Granularity: best(%s) / best(%s) per dataset:", coarse, fine)
		p.perDataset(res.GranularitySpeedup(coarse, fine))
		if p.winners {
			fmt.Fprintln(p.w)
			fmt.Fprintln(p.w, "Best strategy per (config, dataset):")
			if err := bench.WriteWinners(p.w, res.Winners()); err != nil {
				return err
			}
		}
		fmt.Fprintln(p.w)
		for _, s := range panels {
			if err := p.render(f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// perDataset prints " dataset=value" in dataset order and ends the line.
func (p *paper) perDataset(values map[string]float64) {
	names := make([]string, 0, len(values))
	for ds := range values {
		names = append(names, ds)
	}
	sort.Strings(names)
	for _, ds := range names {
		fmt.Fprintf(p.w, " %s=%.2f", ds, values[ds])
	}
	fmt.Fprintln(p.w)
}

// render draws a panel's scatter (simulated time against the metric, both
// axes log-scaled like the paper's figures) and writes its CSV file, as
// -plot and -csv ask.
func (p *paper) render(f bench.Figure, s *bench.CorrelationSeries) error {
	points := make([]plotPoint, 0, len(s.Points))
	for _, pt := range s.Points {
		points = append(points, plotPoint{X: pt.Metric, Y: pt.SimSecs, Series: pt.Dataset})
	}
	if p.plot {
		err := writeScatter(p.w, points, scatterConfig{
			Title:  fmt.Sprintf("%s: simulated time vs %s (%s, r=%.3f)", f.Title, s.Metric, s.Config, s.Pearson),
			XLabel: s.Metric, YLabel: "secs", LogX: true, LogY: true,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(p.w)
	}
	if p.csv == "" {
		return nil
	}
	out, err := os.Create(fmt.Sprintf("%s.%s.csv", p.csv, s.Config))
	if err != nil {
		return err
	}
	if err := writeCSV(out, points, s.Metric, "simsecs"); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// infra prints the §4 infrastructure experiment: PageRank under
// configurations (ii)–(iv), the upgrade reductions and the partitioner
// impact per configuration.
func (p *paper) infra() error {
	e := bench.InfraExperiment()
	p.restrict(&e)
	fmt.Fprintf(p.w, "=== Infrastructure experiment (§4): PageRank on %s ===\n", e.Datasets[0].Name)
	res, err := e.Run(context.Background())
	if err != nil {
		return err
	}
	r, err := res.Infra()
	if err != nil {
		return err
	}
	if err := bench.WriteInfra(p.w, r); err != nil {
		return err
	}
	fmt.Fprintln(p.w, "Paper: config(iii) ≈ -15%, config(iv) ≈ -20% vs config(ii).")
	return nil
}
