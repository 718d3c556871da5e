// Package datagen generates the paper's three experimental databases —
// TPC-D (scaled), Synthetic1, and Synthetic2 — with Zipfian column
// distributions, plus batch-insert row generators for the maintenance
// experiments. Everything is seeded and deterministic.
package datagen

import (
	"math"
	"math/rand"
)

// Zipf draws integers in [1, n] with probability proportional to
// 1/rank^theta. theta = 0 degenerates to uniform; the paper draws
// theta from {0,1,2,3,4} per column ("0 implies uniform distribution,
// whereas 4 is highly skewed data").
type Zipf struct {
	n   int
	cdf []float64
	// guide[k] is the first index whose cdf reaches k/n (n when none
	// does), for k in [0, n]: a draw u starts its search at
	// guide[int(u*n)], and the cdf entries between one guide point and
	// the next average one per draw, whatever the skew.
	guide []int32
	rng   *rand.Rand
}

// NewZipf builds a generator over [1, n] with skew theta.
func NewZipf(rng *rand.Rand, n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n, rng: rng}
	if theta <= 0 {
		return z // uniform fast path, no CDF needed
	}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.guide = make([]int32, n+1)
	i := 0
	for k := range z.guide {
		u := float64(k) / float64(n)
		for i < n && z.cdf[i] < u {
			i++
		}
		z.guide[k] = int32(i)
	}
	return z
}

// Next draws one value in [1, n].
func (z *Zipf) Next() int {
	if z.cdf == nil {
		return 1 + z.rng.Intn(z.n)
	}
	i := z.search(z.rng.Float64())
	if i >= z.n {
		i = z.n - 1
	}
	return i + 1
}

// search returns the first index whose cdf reaches u (n when none
// does) — sort.SearchFloat64s(z.cdf, u) for u in [0, 1), found from
// u's guide point. Its steps back and forth settle on that index from
// any start, so float rounding in u*n or in the guide costs a step,
// never a different draw.
func (z *Zipf) search(u float64) int {
	i := int(z.guide[int(u*float64(z.n))])
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for i < z.n && z.cdf[i] < u {
		i++
	}
	return i
}

// N returns the domain size.
func (z *Zipf) N() int { return z.n }
