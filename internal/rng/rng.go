// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// All experiments in this repository must be exactly reproducible from a
// seed, across platforms and Go releases. math/rand's generator is stable,
// but its convenience constructors and global state make accidental
// non-determinism easy; this package offers explicit, allocation-free
// generators instead: SplitMix64 for seeding and hashing, and Xoshiro256**
// for bulk generation.
package rng

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// primarily used to derive well-distributed seeds and as a 64-bit mixing
// function for hash partitioners.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a high-quality
// stateless 64-bit mixing function: every input bit affects every output
// bit. Partitioning strategies use it as their hash function.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Combine2 mixes two 64-bit values into one. It is used by partitioners
// that hash an (src, dst) pair together.
func Combine2(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b)*0x9e3779b97f4a7c15)
}

// Rand is a xoshiro256** pseudo-random generator. It is deterministic for a
// given seed, very fast, and has a 2^256-1 period — more than adequate for
// graph synthesis at the scales used here.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded from seed via SplitMix64, as recommended by the
// xoshiro authors (directly seeding with low-entropy values produces poor
// early output).
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// All-zero state is invalid for xoshiro; splitmix of any seed cannot
	// produce four zero words in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform random uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Classic modulo with rejection to remove bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v <= max {
			return v % n
		}
	}
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
