package sim

import "math"

// RNG is a small, fast, deterministic random source (splitmix64). It is used
// instead of math/rand so that simulation results are stable across Go
// releases and so that every component can derive independent substreams.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Reseed resets the generator to the state of a fresh NewRNG(seed). Pooled
// consumers (reset simulators reused across replay runs) use it so reuse is
// indistinguishable from construction.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// Fork derives an independent substream keyed by label. Two forks of the same
// RNG with different labels produce uncorrelated sequences, and forking does
// not perturb the parent stream.
func (r *RNG) Fork(label uint64) *RNG {
	// Mix the current state and the label through one splitmix64 round each.
	z := r.state + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// ExpFloat64 returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) ExpFloat64(rate float64) float64 {
	if rate <= 0 {
		panic("sim: ExpFloat64 with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(1-u) / rate
}

// NormFloat64 returns a standard normal value (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma^2)). With mu = -sigma^2/2 the mean is 1,
// which is how multiplicative noise (for example optimizer estimate error)
// is generated without bias.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// UnbiasedLogNormal returns a multiplicative noise factor with mean 1 and the
// given shape sigma. sigma = 0 returns exactly 1.
func (r *RNG) UnbiasedLogNormal(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return r.LogNormal(-sigma*sigma/2, sigma)
}

// ZipfTable draws values in [1, n] with Zipfian skew s (s > 0; larger is
// more skewed). Entry i is the unnormalized cumulative weight of 1..i+1,
// summed in ascending order, so the last entry is the total; a draw scales
// one Float64 by that total and returns the first value whose cumulative
// weight reaches it. Build the table once and draw from it many times.
type ZipfTable []float64

// NewZipfTable builds the table for [1, n] with skew s; n must be positive
// (a table over nothing has nothing to draw, and Draw panics on it).
func NewZipfTable(n int, s float64) ZipfTable {
	t := make(ZipfTable, n)
	var acc float64
	for i := range t {
		acc += 1 / math.Pow(float64(i+1), s)
		t[i] = acc
	}
	return t
}

// Draw returns the next value, consuming one Float64 from r. O(log n).
func (t ZipfTable) Draw(r *RNG) int {
	u := r.Float64() * t[len(t)-1]
	// Binary search for the first i with u <= t[i]; u never exceeds the
	// total, so the last entry always qualifies.
	lo, hi := 0, len(t)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// ZipfGen samples Zipfian values in [0, n) efficiently using a precomputed
// cumulative table. Use this for hot paths such as lock-key selection.
type ZipfGen struct {
	cdf []float64
	rng *RNG
}

// NewZipfGen builds a generator over [0, n) with skew s using random source r.
func NewZipfGen(r *RNG, n int, s float64) *ZipfGen {
	if n <= 0 {
		panic("sim: NewZipfGen with non-positive n")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &ZipfGen{cdf: cdf, rng: r}
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *ZipfGen) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
