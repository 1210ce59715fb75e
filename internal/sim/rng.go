package sim

import "math"

// RNG is a deterministic pseudo-random source based on splitmix64.
// It is not cryptographically secure; it exists so that every simulation
// run is reproducible from its seed, which the test suite depends on.
type RNG struct {
	state uint64
}

// gamma is splitmix64's state increment per draw.
const gamma = 0x9e3779b97f4a7c15

// NewRNG returns an RNG seeded with seed. Two RNGs with the same seed
// produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances the stream past n values in O(1), leaving it where n
// Uint64 calls would: splitmix64's state steps by a fixed constant per
// draw, so n draws are one multiply-add.
func (r *RNG) Skip(n uint64) { r.state += n * gamma }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean with probability p of being true.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (the number of trials until first success, minimum 1). A mean below 1
// is clamped to 1. The simulator uses it for bursty gap generation.
func (r *RNG) Geometric(m float64) uint64 {
	if m <= 1 {
		return 1
	}
	p := 1.0 / m
	// Inverse-CDF sampling. Guard the log argument away from 0.
	u := r.Float64()
	if u >= 1 {
		u = 1 - 1e-12
	}
	n := uint64(math.Log(1-u)/math.Log(1-p)) + 1
	if n == 0 {
		n = 1
	}
	return n
}

// Fork returns a new RNG whose seed is derived from this one's stream.
// Use it to give subcomponents independent deterministic streams.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Shuffle pseudo-randomly permutes the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
