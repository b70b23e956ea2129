package bench

import (
	"bytes"
	"context"
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

func tinyExperiment(alg Algorithm) Experiment {
	return Experiment{
		Algorithm:     alg,
		Datasets:      datasets.TinySuite(),
		Strategies:    partition.All(),
		Configs:       tinyConfigs(),
		PRIterations:  5,
		CCIterations:  10,
		SSSPLandmarks: 2,
		Seed:          7,
	}
}

func TestExperimentValidate(t *testing.T) {
	e := tinyExperiment(PageRank)
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
	bad.PRIterations = 0
	if err := bad.Validate(); err == nil {
		t.Error("PR without iterations should fail validation")
	}
	bad = tinyExperiment(SSSP)
	bad.SSSPLandmarks = 0
	if err := bad.Validate(); err == nil {
		t.Error("SSSP without landmarks should fail validation")
	}
}

func TestExperimentRunAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			e := tinyExperiment(alg)
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
	e := tinyExperiment(PageRank)
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
	best, err := res.BestStrategy(winners[0].Dataset, winners[0].Config)
	if err != nil || best != winners[0].Strategy {
		t.Fatalf("BestStrategy = %q, %v", best, err)
	}
	if _, err := res.BestStrategy("nope", "tiny-coarse"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestPerDatasetCorrelation(t *testing.T) {
	e := tinyExperiment(PageRank)
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
	e := tinyExperiment(ConnectedComponents)
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
	e := tinyExperiment(PageRank)
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
	e := DefaultExperiment(SSSP)
	for _, spec := range e.Datasets {
		if spec.Road {
			t.Fatalf("SSSP experiment includes road network %s", spec.Name)
		}
	}
	if len(e.Datasets) != 6 {
		t.Fatalf("SSSP datasets = %d, want 6", len(e.Datasets))
	}
	pr := DefaultExperiment(PageRank)
	if len(pr.Datasets) != 9 {
		t.Fatalf("PR datasets = %d, want 9", len(pr.Datasets))
	}
}

func TestInfraExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("infra experiment builds follow-dec")
	}
	r, err := InfraExperiment(context.Background(), 3, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := InfraExperiment(context.Background(), 3, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
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
	e := tinyExperiment(PageRank)
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
			assign, err := s.Partition(g, 16)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := pregel.NewPartitionedGraph(g, assign, 16)
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
