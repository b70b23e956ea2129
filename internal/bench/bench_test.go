package bench

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/cluster"
	"cutfit/internal/datasets"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// tinyConfigs shrinks the cluster configs so integration tests stay fast
// while keeping the coarse/fine granularity contrast.
func tinyConfigs() []cluster.Config {
	coarse := cluster.ConfigI()
	coarse.Name = "tiny-coarse"
	coarse.NumPartitions = 8
	fine := cluster.ConfigII()
	fine.Name = "tiny-fine"
	fine.NumPartitions = 16
	return []cluster.Config{coarse, fine}
}

func tinyExperiment(alg string) Experiment {
	f, err := FigureOf(alg)
	if err != nil {
		panic(err)
	}
	return Experiment{
		Algorithm:  alg,
		Datasets:   datasets.TinySuite(),
		Strategies: partition.All(),
		Configs:    tinyConfigs(),
		Iters:      5,
		Sources:    min(f.Sources, 2),
		Seed:       7,
	}
}

func TestExperimentValidate(t *testing.T) {
	e := tinyExperiment("pagerank")
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := e
	bad.Algorithm = "sorting"
	if err := bad.Validate(); err == nil {
		t.Error("unknown algorithm should fail validation")
	}
	bad = e
	bad.Datasets = nil
	if err := bad.Validate(); err == nil {
		t.Error("no datasets should fail validation")
	}
	bad = e
	bad.Iters = 0
	if err := bad.Validate(); err == nil {
		t.Error("PR without iterations should fail validation")
	}
	bad = tinyExperiment("cc")
	bad.Iters = 0
	if err := bad.Validate(); err != nil {
		t.Errorf("cc runs to convergence without an iteration cap: %v", err)
	}
	if _, err := FigureOf("sorting"); err == nil {
		t.Error("FigureOf should reject an unknown algorithm")
	}
	if _, err := FigureOf("dynamicpr"); err == nil {
		t.Error("FigureOf should reject a served algorithm the paper has no figure for")
	}
}

func TestExperimentRunAllAlgorithms(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.Alg, func(t *testing.T) {
			e := tinyExperiment(f.Alg)
			res, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wantRuns := len(e.Datasets) * len(e.Strategies) * len(e.Configs)
			if len(res.Runs) != wantRuns {
				t.Fatalf("runs = %d, want %d", len(res.Runs), wantRuns)
			}
			for _, run := range res.Runs {
				if run.SimSecs <= 0 {
					t.Fatalf("%s/%s/%s: non-positive simulated time", run.Dataset, run.Strategy, run.Config)
				}
				if run.Metrics == nil || run.Stats == nil {
					t.Fatalf("%s/%s: missing metrics or stats", run.Dataset, run.Strategy)
				}
			}
		})
	}
}

func TestCorrelateAndWinners(t *testing.T) {
	e := tinyExperiment("pagerank")
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Correlate("CommCost", "tiny-coarse")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(e.Datasets)*len(e.Strategies) {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Pearson < 0.3 {
		t.Fatalf("PageRank CommCost correlation %g unexpectedly low", s.Pearson)
	}
	if _, err := res.Correlate("CommCost", "missing-config"); err == nil {
		t.Error("unknown config should error")
	}
	if _, err := res.Correlate("Bogus", "tiny-coarse"); err == nil {
		t.Error("unknown metric should error")
	}

	winners := res.Winners()
	if len(winners) != len(e.Datasets)*len(e.Configs) {
		t.Fatalf("winners = %d", len(winners))
	}
	for _, w := range winners {
		if w.Strategy == "" || w.SimSecs <= 0 {
			t.Fatalf("bad winner %+v", w)
		}
		if w.Gap < 0 {
			t.Fatalf("winner gap negative: %+v", w)
		}
	}
}

func TestPerDatasetCorrelation(t *testing.T) {
	e := tinyExperiment("pagerank")
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	per, err := res.PerDatasetCorrelation("CommCost", "tiny-fine")
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != len(e.Datasets) {
		t.Fatalf("per-dataset correlations = %d", len(per))
	}
	for ds, r := range per {
		if r < -1.001 || r > 1.001 {
			t.Fatalf("%s: correlation %g out of range", ds, r)
		}
	}
}

func TestGranularitySpeedup(t *testing.T) {
	e := tinyExperiment("cc")
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sp := res.GranularitySpeedup("tiny-coarse", "tiny-fine")
	if len(sp) != len(e.Datasets) {
		t.Fatalf("speedups = %d", len(sp))
	}
	for ds, v := range sp {
		if v <= 0 {
			t.Fatalf("%s: speedup %g", ds, v)
		}
	}
}

func TestCharacterizeAndWrite(t *testing.T) {
	rows, err := Characterize(datasets.TinySuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(datasets.TinySuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	if err := WriteCharacterization(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tiny-road") || !strings.Contains(out, "Vertices") {
		t.Fatalf("unexpected table output:\n%s", out)
	}
}

func TestMetricsTableAndWrite(t *testing.T) {
	rows, err := MetricsTable(datasets.TinySuite(), partition.All(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(datasets.TinySuite())*6 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	if err := WriteMetricsTable(&buf, rows, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CommCost") {
		t.Fatal("metrics table missing header")
	}
}

func TestFigure1And2(t *testing.T) {
	degs, err := Figure1Degrees(datasets.TinySuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range degs {
		if len(d.In) == 0 || len(d.Out) == 0 {
			t.Fatalf("%s: empty histograms", d.Dataset)
		}
	}
	cdfs, err := Figure2RatioCDF(datasets.TinySuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cdfs {
		if len(c.CDF) == 0 {
			t.Fatalf("%s: empty CDF", c.Dataset)
		}
		if c.InfFraction < 0 || c.InfFraction > 1 {
			t.Fatalf("%s: inf fraction %g", c.Dataset, c.InfFraction)
		}
	}
	var buf bytes.Buffer
	if err := WriteRatioCDF(&buf, cdfs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tiny-follow") {
		t.Fatal("ratio CDF table missing dataset")
	}
}

func TestWriteCorrelationAndWinners(t *testing.T) {
	e := tinyExperiment("pagerank")
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Correlate("CommCost", "tiny-coarse")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorrelation(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pearson r") {
		t.Fatal("correlation output missing coefficient")
	}
	buf.Reset()
	if err := WriteWinners(&buf, res.Winners()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Best") {
		t.Fatal("winners output missing header")
	}
}

func TestPickLandmarksDistinct(t *testing.T) {
	spec := datasets.TinySuite()[0]
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ls := pickLandmarks(g, 5, 1)
	if len(ls) != 5 {
		t.Fatalf("landmarks = %d", len(ls))
	}
	seen := map[int64]bool{}
	for _, l := range ls {
		if seen[int64(l)] {
			t.Fatal("duplicate landmark")
		}
		seen[int64(l)] = true
	}
	// Deterministic.
	ls2 := pickLandmarks(g, 5, 1)
	for i := range ls {
		if ls[i] != ls2[i] {
			t.Fatal("landmark selection not deterministic")
		}
	}
	if got := pickLandmarks(g, 0, 1); got != nil {
		t.Fatal("n=0 should give nil")
	}
}

func TestDefaultExperimentExcludesRoadsForSSSP(t *testing.T) {
	f, err := FigureOf("sssp")
	if err != nil {
		t.Fatal(err)
	}
	e := f.Experiment()
	for _, spec := range e.Datasets {
		if spec.Road {
			t.Fatalf("SSSP experiment includes road network %s", spec.Name)
		}
	}
	if len(e.Datasets) != 6 || e.Sources != 5 {
		t.Fatalf("SSSP datasets = %d, sources = %d, want 6 and 5", len(e.Datasets), e.Sources)
	}
	for _, f := range Figures[:3] {
		if e := f.Experiment(); len(e.Datasets) != 9 || e.Sources != 0 {
			t.Fatalf("%s datasets = %d, sources = %d, want 9 and 0", f.Alg, len(e.Datasets), e.Sources)
		}
	}
}

// TestRunSharesCellsAcrossConfigs: configurations with one partition count
// price one run per (dataset, strategy) — the same statistics, not a rerun —
// and the runs come back in dataset, config, strategy order.
func TestRunSharesCellsAcrossConfigs(t *testing.T) {
	e := tinyExperiment("sssp")
	e.Configs = []cluster.Config{cluster.ConfigII(), cluster.ConfigIII(), cluster.ConfigIV()}
	for i := range e.Configs {
		e.Configs[i].NumPartitions = 8
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	per := len(e.Strategies)
	if len(res.Runs) != len(e.Datasets)*len(e.Configs)*per {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for i, run := range res.Runs {
		ds, cfg, strat := i/(len(e.Configs)*per), i/per%len(e.Configs), i%per
		if run.Dataset != e.Datasets[ds].Name || run.Config != e.Configs[cfg].Name || run.Strategy != e.Strategies[strat].Name() {
			t.Fatalf("run %d is %s/%s/%s", i, run.Dataset, run.Config, run.Strategy)
		}
		if first := res.Runs[i-cfg*per]; run.Stats != first.Stats || run.Metrics != first.Metrics {
			t.Fatalf("run %d (%s) re-ran the cell of %s", i, run.Config, first.Config)
		}
		if got := run.Stats.NumSupersteps(); got == 0 {
			t.Fatalf("run %d has no supersteps", i)
		}
	}
	if _, err := res.Infra(); err != nil {
		t.Fatal(err)
	}
	res.Runs = slices.DeleteFunc(res.Runs, func(r Run) bool { return r.Strategy == "2D" })
	if _, err := res.Infra(); err == nil {
		t.Error("Infra without a 2D run should fail")
	}
}

// infra runs the infrastructure experiment at three iterations.
func infra(t *testing.T) *InfraResult {
	t.Helper()
	e := InfraExperiment()
	e.Iters = 3
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.Infra()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInfraExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("infra experiment builds follow-dec")
	}
	r := infra(t)
	if r.SecsIII >= r.SecsII {
		t.Fatalf("config iii (%g) not faster than ii (%g)", r.SecsIII, r.SecsII)
	}
	if r.SecsIV >= r.SecsIII {
		t.Fatalf("config iv (%g) not faster than iii (%g)", r.SecsIV, r.SecsIII)
	}
	if r.ReductionIII <= 0 || r.ReductionIV <= r.ReductionIII {
		t.Fatalf("reductions: %g, %g", r.ReductionIII, r.ReductionIV)
	}
	var buf bytes.Buffer
	if err := WriteInfra(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "follow-dec") {
		t.Fatal("infra output missing dataset")
	}
}

func TestInfraSpreadGrowsWithInfrastructure(t *testing.T) {
	if testing.Short() {
		t.Skip("infra experiment builds follow-dec")
	}
	r := infra(t)
	// The paper's conclusion — partitioner choice matters more on better
	// infrastructure — reproduces between configurations (iii) and (iv):
	// as fixed costs (storage load) shrink, the partitioner-driven share
	// of the runtime grows. (Between (ii) and (iii) the analog scale
	// diverges from the paper: at 1/100 data size the 1 Gb/s network
	// dominates config (ii), so the spread there is already extreme.)
	if !(r.SpreadIV > r.SpreadIII) {
		t.Fatalf("partitioner spread did not grow iii->iv: ii=+%.1f%% iii=+%.1f%% iv=+%.1f%%",
			100*r.SpreadII, 100*r.SpreadIII, 100*r.SpreadIV)
	}
}

// TestExperimentDeterministic: the whole pipeline — generation,
// partitioning, execution, accounting, simulation — must be bit-for-bit
// reproducible across runs.
func TestExperimentDeterministic(t *testing.T) {
	e := tinyExperiment("pagerank")
	a, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.SimSecs != rb.SimSecs {
			t.Fatalf("%s/%s/%s: simulated time differs: %g vs %g",
				ra.Dataset, ra.Strategy, ra.Config, ra.SimSecs, rb.SimSecs)
		}
		if ra.Metrics.CommCost != rb.Metrics.CommCost || ra.Metrics.Cut != rb.Metrics.Cut {
			t.Fatalf("%s/%s/%s: metrics differ", ra.Dataset, ra.Strategy, ra.Config)
		}
		if ra.Stats.NumSupersteps() != rb.Stats.NumSupersteps() {
			t.Fatalf("%s/%s/%s: superstep counts differ", ra.Dataset, ra.Strategy, ra.Config)
		}
	}
}

// TestTriangleExperimentCounts: the TR grid must produce identical
// triangle totals regardless of strategy and partition count (full
// integration cross-check against the graph oracle).
func TestTriangleExperimentCounts(t *testing.T) {
	for _, spec := range datasets.TinySuite() {
		g, err := spec.BuildCached()
		if err != nil {
			t.Fatal(err)
		}
		want := g.TotalTriangles()
		for _, s := range partition.All() {
			a, err := partition.Assign(g, s, 16)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			counts, _, err := algorithms.TriangleCount(context.Background(), pg)
			if err != nil {
				t.Fatal(err)
			}
			if got := algorithms.TotalTriangles(counts); got != want {
				t.Fatalf("%s/%s: triangles = %d, oracle %d", spec.Name, s.Name(), got, want)
			}
		}
	}
}
