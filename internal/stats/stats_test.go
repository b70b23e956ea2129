package stats

import (
	"math"
	"testing"
	"testing/quick"

	"cutfit/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty slice should give zero")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5) {
		t.Fatalf("Mean = %g", Mean(xs))
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1) {
		t.Fatalf("r = %g, err = %v", r, err)
	}
	neg := []float64{40, 30, 20, 10}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1) {
		t.Fatalf("r = %g, want -1", r)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant x: r=%g err=%v", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
}

func TestPearsonBounded(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			ys[i] = r.Float64() * 100
		}
		p, err := Pearson(xs, ys)
		return err == nil && p >= -1.0000001 && p <= 1.0000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any monotone transform gives rho = 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	rho, err := Spearman(xs, ys)
	if err != nil || !almost(rho, 1) {
		t.Fatalf("rho = %g, err = %v", rho, err)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(r[i], want[i]) {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestCDF(t *testing.T) {
	c := CDF([]float64{1, 1, 2, 5})
	if len(c) != 3 {
		t.Fatalf("CDF points = %d, want 3", len(c))
	}
	if !almost(CDFAt(c, 0), 0) {
		t.Fatalf("CDFAt(0) = %g", CDFAt(c, 0))
	}
	if !almost(CDFAt(c, 1), 0.5) {
		t.Fatalf("CDFAt(1) = %g", CDFAt(c, 1))
	}
	if !almost(CDFAt(c, 3), 0.75) {
		t.Fatalf("CDFAt(3) = %g", CDFAt(c, 3))
	}
	if !almost(CDFAt(c, 99), 1) {
		t.Fatalf("CDFAt(99) = %g", CDFAt(c, 99))
	}
	if CDF(nil) != nil {
		t.Fatal("CDF(nil) should be nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(r.Float64() * 20)
		}
		c := CDF(xs)
		prev := 0.0
		for _, p := range c {
			if p.Fraction < prev {
				return false
			}
			prev = p.Fraction
		}
		return almost(c[len(c)-1].Fraction, 1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLogHistogram(t *testing.T) {
	bins := LogHistogram([]int64{0, 1, 1, 2, 3, 4, 7, 8, 100})
	// Bins: [0,0]=1, [1,1]=2, [2,3]=2, [4,7]=2, [8,15]=1, ..., [64,127]=1.
	if bins[0].Count != 1 || bins[1].Count != 2 || bins[2].Count != 2 || bins[3].Count != 2 {
		t.Fatalf("bins = %+v", bins)
	}
	var total int64
	for _, b := range bins {
		total += b.Count
		if b.Lo > b.Hi {
			t.Fatalf("bin %+v inverted", b)
		}
	}
	if total != 9 {
		t.Fatalf("histogram total = %d, want 9", total)
	}
}

func TestLogHistogramCoversAllValues(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(1 << 16))
		}
		bins := LogHistogram(vals)
		var total int64
		for _, b := range bins {
			total += b.Count
		}
		if total != int64(n) {
			return false
		}
		// Every value falls in the bin that contains it.
		for _, v := range vals {
			found := false
			for _, b := range bins {
				if v >= b.Lo && v <= b.Hi {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
