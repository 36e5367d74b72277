// Package core implements the paper's Certain Prediction (CP) primitives for
// K-nearest-neighbor classifiers: the checking query Q1 and the counting
// query Q2 over the exponentially many possible worlds of an incomplete
// dataset, answered in polynomial time.
//
// Implementations provided (Figure 4 of the paper):
//
//   - Brute force — enumerates possible worlds; exponential, used as the
//     ground truth in tests (BruteForceCounts).
//   - SS (SortScan), naive exact — O((NM)²·K·|Y|) with math/big integers
//     (SSExactCounts); the verification reference for large-count cases.
//   - SS for K = 1 — the O(NM log NM) incremental scan of §3.1.2
//     (SSFastCounts, SSFastExactCounts).
//   - SS-DC — the general O(NM·(log NM + K²·log N)) algorithm of §3.1.3 +
//     appendix A.2, built on a segment tree of truncated polynomial products
//     (Engine.Counts).
//   - SS-DC-MC — the multi-class variant of appendix A.3, polynomial in |Y|
//     (Engine.CountsMC).
//   - MM (MinMax) — Q1 for binary labels in O(NM + N log K) via l-extreme
//     worlds, §3.2 (Engine.CheckMM, MMCheck).
//
// All algorithms share one strict total order over candidates (descending
// similarity, ties to the lexicographically smaller (row, candidate) pair)
// and one vote tie-break (smallest label), so their answers agree exactly.
// −0 and +0 are the same similarity, so they tie. The scan order is realised
// once per engine by a stable radix sort on an order-preserving integer key
// of the similarity (sortedCandidates); MoreSimilar states the same order as
// a comparator.
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// Instance is an incomplete training set viewed through the lens of a single
// test point: only the candidate similarities and the labels remain.
// Sims[i][j] is κ(x_{i,j}, t) for candidate j of training example i.
type Instance struct {
	Sims      [][]float64
	Labels    []int
	NumLabels int
}

// NewInstance validates shapes and label ranges.
func NewInstance(sims [][]float64, labels []int, numLabels int) (*Instance, error) {
	if len(sims) != len(labels) {
		return nil, fmt.Errorf("core: %d similarity rows but %d labels", len(sims), len(labels))
	}
	if numLabels < 2 {
		return nil, fmt.Errorf("core: need at least 2 labels, got %d", numLabels)
	}
	for i, row := range sims {
		if len(row) == 0 {
			return nil, fmt.Errorf("core: example %d has no candidates", i)
		}
		if labels[i] < 0 || labels[i] >= numLabels {
			return nil, fmt.Errorf("core: label %d at example %d out of range [0,%d)", labels[i], i, numLabels)
		}
	}
	return &Instance{Sims: sims, Labels: labels, NumLabels: numLabels}, nil
}

// MustNewInstance is NewInstance but panics on error.
func MustNewInstance(sims [][]float64, labels []int, numLabels int) *Instance {
	inst, err := NewInstance(sims, labels, numLabels)
	if err != nil {
		panic(err)
	}
	return inst
}

// InstanceFor computes the similarity view of incomplete dataset d with
// respect to test point t under the given kernel.
func InstanceFor(d *dataset.Incomplete, kernel knn.Kernel, t []float64) *Instance {
	sims := make([][]float64, d.N())
	labels := make([]int, d.N())
	for i := range d.Examples {
		ex := &d.Examples[i]
		row := make([]float64, ex.M())
		for j, c := range ex.Candidates {
			row[j] = kernel.Similarity(c, t)
		}
		sims[i] = row
		labels[i] = ex.Label
	}
	return &Instance{Sims: sims, Labels: labels, NumLabels: d.NumLabels}
}

// N returns the number of training examples.
func (in *Instance) N() int { return len(in.Labels) }

// M returns the candidate count of example i.
func (in *Instance) M(i int) int { return len(in.Sims[i]) }

// TotalCandidates returns Σ_i M_i.
func (in *Instance) TotalCandidates() int {
	s := 0
	for _, row := range in.Sims {
		s += len(row)
	}
	return s
}

// MoreSimilar reports whether candidate (i1,j1) is strictly more similar to
// the test point than (i2,j2) under the package's total order: higher
// similarity wins; exact ties go to the lexicographically smaller (i,j).
// The paper assumes no ties ("we can always break a tie by favoring a
// smaller i and j"); this order realizes that assumption.
func (in *Instance) MoreSimilar(i1, j1, i2, j2 int) bool {
	s1, s2 := in.Sims[i1][j1], in.Sims[i2][j2]
	if s1 != s2 {
		return s1 > s2
	}
	if i1 != i2 {
		return i1 < i2
	}
	return j1 < j2
}

// candRef identifies one candidate value.
type candRef struct {
	row, cand int32
}

// sortedCandidates returns every candidate reference ordered by ascending
// similarity (least similar first), the scan order of the SS algorithms: a
// scans before b iff MoreSimilar(b, a).
//
// The order is realised by a stable LSD radix sort on simKey, not by a
// comparator. Keys are appended in descending (row, candidate) order, so a
// stable ascending sort leaves tied candidates larger (row, candidate)
// first — exactly MoreSimilar's tie rule read backwards. Digits are 8 bits;
// a digit on which every key agrees is skipped. The two work buffers come
// from radixBufs, so the returned order is the only per-call allocation.
func (in *Instance) sortedCandidates() []candRef {
	n := in.TotalCandidates()
	buf := radixBufs.Get().(*radixBuf)
	defer radixBufs.Put(buf)
	if cap(buf.src) < n {
		buf.src = make([]radixEntry, n)
		buf.dst = make([]radixEntry, n)
	}
	src, dst := buf.src[:n], buf.dst[:n]
	hist := &buf.hist
	*hist = [8][256]int{}
	p := 0
	for i := len(in.Sims) - 1; i >= 0; i-- {
		row := in.Sims[i]
		for j := len(row) - 1; j >= 0; j-- {
			k := simKey(row[j])
			src[p] = radixEntry{k, candRef{int32(i), int32(j)}}
			p++
			// All eight digit histograms in this one pass, unrolled: the
			// loop form pays bounds checks on every key.
			hist[0][byte(k)]++
			hist[1][byte(k>>8)]++
			hist[2][byte(k>>16)]++
			hist[3][byte(k>>24)]++
			hist[4][byte(k>>32)]++
			hist[5][byte(k>>40)]++
			hist[6][byte(k>>48)]++
			hist[7][byte(k>>56)]++
		}
	}
	for d := range hist {
		h, shift := &hist[d], 8*uint(d)
		if n == 0 || h[byte(src[0].key>>shift)] == n {
			continue // every key has this digit: the pass would not move anything
		}
		sum := 0
		for v, c := range h {
			h[v] = sum
			sum += c
		}
		for _, x := range src {
			b := byte(x.key >> shift)
			dst[h[b]] = x
			h[b]++
		}
		src, dst = dst, src
	}
	out := make([]candRef, n)
	for p, x := range src {
		out[p] = x.ref
	}
	return out
}

// simKey maps a similarity to a uint64 whose unsigned order is MoreSimilar's
// similarity order: −0 is canonicalised to +0 first (the two compare equal,
// and NegEuclidean returns −0 on an exact hit), then negative values get
// their bits flipped and non-negative ones their sign bit set. ±Inf and
// subnormals land where float comparison puts them. NaN, which MoreSimilar
// leaves unordered, sorts above +Inf when its sign bit is clear and below
// −Inf when it is set.
func simKey(s float64) uint64 {
	b := math.Float64bits(s)
	if b == 1<<63 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixEntry is one candidate under its sort key.
type radixEntry struct {
	key uint64
	ref candRef
}

// radixBuf holds sortedCandidates' work buffers and digit histograms.
type radixBuf struct {
	src, dst []radixEntry
	hist     [8][256]int
}

var radixBufs = sync.Pool{New: func() any { return new(radixBuf) }}
