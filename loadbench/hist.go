package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram: values are bucketed by their
// power-of-two magnitude, each magnitude split into subBuckets linear
// sub-buckets, so a bucket's width is at most 1/subBuckets of its lower
// bound. Percentiles interpolate linearly inside the bucket that holds the
// requested rank, which keeps them within that relative error of the exact
// order statistic (hist_test.go checks this against an exact sort).
type hist struct {
	counts map[int]int64
	n      int64
	min    int64
	max    int64
}

const subBucketBits = 7 // 128 sub-buckets per power of two: ≤0.8% width

func newHist() *hist { return &hist{counts: make(map[int]int64), min: math.MaxInt64} }

// bucketOf maps a non-negative value (nanoseconds) to its bucket index.
func bucketOf(v int64) int {
	if v < 1<<subBucketBits {
		return int(v)
	}
	mag := bits.Len64(uint64(v)) - 1 - subBucketBits
	sub := int(v>>uint(mag)) - 1<<subBucketBits
	return (mag+1)<<subBucketBits + sub
}

// bucketBounds is the half-open value range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < 1<<subBucketBits {
		return int64(b), int64(b) + 1
	}
	mag := b>>subBucketBits - 1
	sub := int64(b&(1<<subBucketBits-1)) + 1<<subBucketBits
	return sub << uint(mag), (sub + 1) << uint(mag)
}

func (h *hist) record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// quantile returns the q-quantile (0 < q ≤ 1) by nearest rank, ceil(q·n),
// interpolated inside its bucket and clamped to the observed min and max.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	keys := make([]int, 0, len(h.counts))
	for b := range h.counts {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var seen int64
	for _, b := range keys {
		c := h.counts[b]
		if seen+c >= rank {
			lo, hi := bucketBounds(b)
			frac := (float64(rank-seen) - 0.5) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			v = math.Max(v, float64(h.min))
			v = math.Min(v, float64(h.max))
			return time.Duration(v)
		}
		seen += c
	}
	return time.Duration(h.max)
}
