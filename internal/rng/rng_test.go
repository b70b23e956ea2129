package rng

import (
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the splitmix64 reference
	// implementation (Vigna).
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("value %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for bit := uint(0); bit < 64; bit++ {
		a := Mix64(0x123456789abcdef)
		b := Mix64(0x123456789abcdef ^ (1 << bit))
		diff := 0
		for x := a ^ b; x != 0; x &= x - 1 {
			diff++
		}
		if diff < 10 || diff > 54 {
			t.Errorf("bit %d: only %d output bits changed", bit, diff)
		}
	}
}

func TestCombine2OrderSensitive(t *testing.T) {
	if Combine2(1, 2) == Combine2(2, 1) {
		t.Fatal("Combine2 should be order sensitive")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) should panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Coarse chi-square-ish check over 8 buckets.
	r := New(99)
	const buckets = 8
	const samples = 80000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(buckets)]++
	}
	expect := samples / buckets
	for b, c := range counts {
		if c < expect*9/10 || c > expect*11/10 {
			t.Errorf("bucket %d: count %d far from expected %d", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		r := New(seed)
		p := r.Perm(int(n))
		if len(p) != int(n) {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(11)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	after := 0
	for _, x := range xs {
		after += x
	}
	if sum != after {
		t.Fatalf("shuffle changed contents: sum %d -> %d", sum, after)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkMix64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Mix64(uint64(i))
	}
}
