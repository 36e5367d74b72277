package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistQuantilesMatchExactSort checks the bucketed percentiles against
// the exact nearest-rank order statistic on synthetic latency shapes.
func TestHistQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() time.Duration{
		"lognormal": func() time.Duration {
			return time.Duration(math.Exp(rng.NormFloat64()*0.8) * float64(time.Millisecond))
		},
		"uniform": func() time.Duration { return time.Duration(rng.Int63n(int64(50 * time.Millisecond))) },
		"bimodal": func() time.Duration {
			if rng.Intn(20) == 0 {
				return 40*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
			}
			return 300*time.Microsecond + time.Duration(rng.Int63n(int64(200*time.Microsecond)))
		},
		"tiny": func() time.Duration { return time.Duration(rng.Intn(100)) },
	}
	for name, draw := range shapes {
		for _, n := range []int{1, 7, 1000, 20000} {
			h := newHist()
			exact := make([]time.Duration, n)
			for i := range exact {
				exact[i] = draw()
				h.record(exact[i])
			}
			sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := exact[int(math.Ceil(q*float64(n)))-1]
				got := h.quantile(q)
				// One bucket is at most 1/128 of its lower bound wide, and
				// values below 128ns have exact unit buckets.
				tol := float64(want)/(1<<subBucketBits) + 1
				if math.Abs(float64(got-want)) > tol {
					t.Errorf("%s n=%d q=%v: hist %v, exact %v (tolerance %.0fns)", name, n, q, got, want, tol)
				}
			}
		}
	}
}

func TestBucketBoundsContainValue(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 40} {
		lo, hi := bucketBounds(bucketOf(v))
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket [%d, %d)", v, lo, hi)
		}
	}
}
