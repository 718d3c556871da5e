package datagen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkSearch holds the guide-table search to sort.SearchFloat64s at u.
func checkSearch(t *testing.T, z *Zipf, theta, u float64) {
	t.Helper()
	if u < 0 || u >= 1 {
		return // outside rand.Float64's range
	}
	if got, want := z.search(u), sort.SearchFloat64s(z.cdf, u); got != want {
		t.Fatalf("n %d theta %v u %v (%#x): guide search %d, binary search %d", z.n, theta, u, math.Float64bits(u), got, want)
	}
}

// TestZipfGuideMatchesBinarySearch: at every CDF value, every guide
// point k/n and the float neighbours of each, the guide-table search
// returns the index the binary search returned.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 10, 4000, 6010} {
		for _, theta := range []float64{1, 2, 3, 4} {
			z := NewZipf(rand.New(rand.NewSource(1)), n, theta)
			var points []float64
			points = append(points, 0, math.Nextafter(1, 0))
			for _, c := range z.cdf {
				points = append(points, c)
			}
			for k := 0; k <= n; k++ {
				points = append(points, float64(k)/float64(n))
			}
			check := func() {
				for _, u := range points {
					checkSearch(t, z, theta, u)
					checkSearch(t, z, theta, math.Nextafter(u, 0))
					checkSearch(t, z, theta, math.Nextafter(u, 1))
				}
			}
			check()
			if n > 10 {
				continue
			}
			// The search settles from any start: a guide pointing past
			// every answer, and one pointing before every answer.
			for _, start := range []int32{int32(n), 0} {
				for k := range z.guide {
					z.guide[k] = start
				}
				check()
			}
		}
	}
}

// FuzzZipfNext: for any domain, skew and uniform draw, the guide-table
// search and the binary search agree.
func FuzzZipfNext(f *testing.F) {
	f.Add(uint16(10), 1.0, 0.5)
	f.Add(uint16(6010), 4.0, 0.999)
	f.Add(uint16(1), 2.0, 0.0)
	f.Add(uint16(4000), 0.3, 0.25)
	f.Fuzz(func(t *testing.T, n uint16, theta, u float64) {
		if !(theta > 0 && theta <= 8) || math.IsNaN(u) || math.IsInf(u, 0) {
			return // theta <= 0 draws uniformly, without a CDF
		}
		u = math.Mod(math.Abs(u), 1) // a draw is in [0, 1)
		z := NewZipf(rand.New(rand.NewSource(1)), int(n), theta)
		checkSearch(t, z, theta, u)
	})
}
