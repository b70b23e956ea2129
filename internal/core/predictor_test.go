package core

import (
	"math"
	"testing"
	"testing/quick"

	"cutfit/internal/gen"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/rng"
	"cutfit/internal/store"
)

func TestFitPredictorExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // time = 1 + 2x
	p, err := FitPredictor("CommCost", xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Intercept-1) > 1e-9 || math.Abs(p.Slope-2) > 1e-9 {
		t.Fatalf("fit = %v", p)
	}
	if math.Abs(p.R2-1) > 1e-9 {
		t.Fatalf("R2 = %g, want 1", p.R2)
	}
	if math.Abs(p.Predict(10)-21) > 1e-9 {
		t.Fatalf("Predict(10) = %g", p.Predict(10))
	}
	if math.Abs(p.Correlation()-1) > 1e-9 {
		t.Fatalf("Correlation = %g", p.Correlation())
	}
}

func TestFitPredictorErrors(t *testing.T) {
	if _, err := FitPredictor("m", []float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitPredictor("m", []float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitPredictor("m", []float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("constant metric should error")
	}
}

func TestPredictorR2Bounded(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + r.Float64()
			ys[i] = r.Float64() * 10
		}
		p, err := FitPredictor("m", xs, ys)
		if err != nil {
			return false
		}
		return p.R2 <= 1.0000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorNegativeSlopeCorrelation(t *testing.T) {
	p, err := FitPredictor("m", []float64{1, 2, 3}, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Correlation() >= 0 {
		t.Fatalf("correlation = %g, want negative", p.Correlation())
	}
}

func TestRankByPrediction(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Rows: 20, Cols: 20, EdgeProb: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]*metrics.Result{}
	for _, s := range partition.All() {
		m, err := metrics.ComputeFor(g, s, 16)
		if err != nil {
			t.Fatal(err)
		}
		results[s.Name()] = m
	}
	p := &Predictor{Metric: "CommCost", Slope: 1e-6} // pure metric ordering
	ranked, err := p.RankByPrediction(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 6 {
		t.Fatalf("ranked = %v", ranked)
	}
	// Must be sorted by CommCost ascending.
	prev := int64(-1)
	for _, name := range ranked {
		cc := results[name].CommCost
		if cc < prev {
			t.Fatalf("ranking not monotone in CommCost: %v", ranked)
		}
		prev = cc
	}
}

func TestTrainPredictorEndToEnd(t *testing.T) {
	g, err := gen.PreferentialAttachment(300, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize times perfectly linear in CommCost to check the plumbing.
	times := map[string]float64{}
	for _, s := range partition.All() {
		m, err := metrics.ComputeFor(g, s, 8)
		if err != nil {
			t.Fatal(err)
		}
		times[s.Name()] = 0.5 + 1e-6*float64(m.CommCost)
	}
	pred, results, err := TrainPredictor(store.New(store.Config{}), g, partition.All(), 8, ProfilePageRank, times)
	if err != nil {
		t.Fatal(err)
	}
	if pred.R2 < 0.999 {
		t.Fatalf("R2 = %g on synthetic linear data", pred.R2)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	ranked, err := pred.RankByPrediction(results)
	if err != nil {
		t.Fatal(err)
	}
	// Predicted-fastest must be the strategy with minimal CommCost.
	best := ranked[0]
	for name, m := range results {
		if m.CommCost < results[best].CommCost {
			t.Fatalf("predicted best %s but %s has lower CommCost", best, name)
		}
	}
}

func TestTrainPredictorErrors(t *testing.T) {
	g, err := gen.PreferentialAttachment(50, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = TrainPredictor(store.New(store.Config{}), g, partition.All(), 4, ProfilePageRank, map[string]float64{"2D": 1})
	if err == nil {
		t.Fatal("one timed strategy should error")
	}
}

func TestAdviseGranularity(t *testing.T) {
	cfg := DefaultAdvisorConfig()
	largeFacts := GraphFacts{Edges: 5_000_000}
	smallFacts := GraphFacts{Edges: 10_000}

	if a := AdviseGranularity(ProfilePageRank, largeFacts, 128, 256, cfg); a.NumPartitions != 128 {
		t.Fatalf("PR: %d, want coarse 128 (%s)", a.NumPartitions, a.Reason)
	}
	if a := AdviseGranularity(ProfileCC, largeFacts, 128, 256, cfg); a.NumPartitions != 256 {
		t.Fatalf("CC large: %d, want fine 256", a.NumPartitions)
	}
	if a := AdviseGranularity(ProfileCC, smallFacts, 128, 256, cfg); a.NumPartitions != 128 {
		t.Fatalf("CC small: %d, want coarse 128", a.NumPartitions)
	}
	if a := AdviseGranularity(ProfileTR, largeFacts, 128, 256, cfg); a.NumPartitions != 256 {
		t.Fatalf("TR: %d, want fine 256", a.NumPartitions)
	}
	if a := AdviseGranularity(ProfileTR, smallFacts, 128, 256, AdvisorConfig{}); a.NumPartitions != 256 {
		t.Fatalf("TR small w/ default cfg: %d, want fine 256", a.NumPartitions)
	}
	for _, p := range []Profile{ProfilePageRank, ProfileCC, ProfileTR, ProfileSSSP} {
		if a := AdviseGranularity(p, largeFacts, 128, 256, cfg); a.Reason == "" {
			t.Fatalf("%s: missing reason", p.Name)
		}
	}
}
