package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// referenceOrder is the scan order stated as a comparator sort over
// MoreSimilar: a scans before b iff b is more similar than a. sortedCandidates
// must produce it exactly.
func referenceOrder(in *Instance) []candRef {
	var out []candRef
	for i, row := range in.Sims {
		for j := range row {
			out = append(out, candRef{int32(i), int32(j)})
		}
	}
	sort.Slice(out, func(x, y int) bool {
		a, b := out[x], out[y]
		return in.MoreSimilar(int(b.row), int(b.cand), int(a.row), int(a.cand))
	})
	return out
}

// checkCandidateOrder asserts that sortedCandidates and the engine built on
// inst both hold the reference order, and that the engine's per-row order
// spans are the first and last positions of each row in that order.
func checkCandidateOrder(t *testing.T, name string, inst *Instance) {
	t.Helper()
	want := referenceOrder(inst)
	if got := inst.sortedCandidates(); !slices.Equal(got, want) {
		t.Fatalf("%s: sortedCandidates\n got %v\nwant %v\nsims %v", name, got, want, inst.Sims)
	}
	e := NewEngineFromInstance(inst)
	if !slices.Equal(e.order, want) {
		t.Fatalf("%s: engine order\n got %v\nwant %v", name, e.order, want)
	}
	for i := range inst.Sims {
		first, last := -1, -1
		for pos, ref := range want {
			if int(ref.row) == i {
				if first < 0 {
					first = pos
				}
				last = pos
			}
		}
		if f, l := e.OrderSpan(i); f != first || l != last {
			t.Fatalf("%s: row %d span [%d, %d], want [%d, %d]", name, i, f, l, first, last)
		}
	}
}

// quantisedInstance draws every similarity from vals, so ties are common.
func quantisedInstance(rng *rand.Rand, n, maxM int, vals []float64) *Instance {
	inst := randomInstance(rng, n, maxM, 2)
	for _, row := range inst.Sims {
		for j := range row {
			row[j] = vals[rng.Intn(len(vals))]
		}
	}
	return inst
}

func TestSortedCandidatesMatchesMoreSimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	for trial := 0; trial < 20; trial++ {
		checkCandidateOrder(t, "random", randomInstance(rng, 1+rng.Intn(60), 4, 3))
		checkCandidateOrder(t, "quantised ties",
			quantisedInstance(rng, 1+rng.Intn(60), 5, []float64{-1, -0.25, 0.5, 1}))
		checkCandidateOrder(t, "mixed ±0",
			quantisedInstance(rng, 1+rng.Intn(40), 4, []float64{-1, negZero, 0, 0.5}))
		checkCandidateOrder(t, "±Inf and subnormals",
			quantisedInstance(rng, 1+rng.Intn(40), 4, []float64{
				math.Inf(-1), -math.MaxFloat64, -1, -2 * tiny, -tiny, negZero,
				0, tiny, 3 * tiny, math.SmallestNonzeroFloat64 * (1 << 51),
				1, math.MaxFloat64, math.Inf(1),
			}))
		m1 := randomInstance(rng, 1+rng.Intn(40), 1, 2)
		for _, row := range m1.Sims {
			row[0] = float64(rng.Intn(3))
		}
		checkCandidateOrder(t, "M = 1", m1)
		checkCandidateOrder(t, "one row", quantisedInstance(rng, 1, 6, []float64{negZero, 0, 1}))
	}

	// An exact hit: every candidate that equals the test point has
	// NegEuclidean similarity −0, tied with the +0 literals mixed in below.
	pt := []float64{1, 2}
	var examples []dataset.Example
	for i := 0; i < 12; i++ {
		cands := [][]float64{{1, 2}, {float64(i), 0}}
		if i%3 == 0 {
			cands = cands[:1]
		}
		examples = append(examples, dataset.Example{Candidates: cands, Label: i % 2})
	}
	inst := InstanceFor(dataset.MustNew(examples, 2), knn.NegEuclidean{}, pt)
	if s := inst.Sims[0][0]; s != 0 || !math.Signbit(s) {
		t.Fatalf("exact hit similarity %v, want -0", s)
	}
	checkCandidateOrder(t, "exact hit", inst)
	inst.Sims[5][0], inst.Sims[7][0] = 0, 0
	checkCandidateOrder(t, "exact hit with +0", inst)
}

// decodeOrderCase turns fuzz bytes into a small similarity matrix — up to 8
// rows of 1–4 candidates — whose values mix ±0, ±Inf, subnormals, extremes
// and raw float64 bit patterns (NaN, outside MoreSimilar's order, becomes 0).
func decodeOrderCase(data []byte) *Instance {
	specials := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1),
	}
	r := fuzzReader(data)
	n := 1 + r.next()%8
	sims := make([][]float64, n)
	labels := make([]int, n)
	for i := range sims {
		sims[i] = make([]float64, 1+r.next()%4)
		for j := range sims[i] {
			sel := r.next()
			switch {
			case sel < 2*len(specials):
				sims[i][j] = specials[sel%len(specials)]
			case sel < 240:
				sims[i][j] = float64(sel%7) - 3
			default:
				var bits uint64
				for b := 0; b < 8; b++ {
					bits = bits<<8 | uint64(r.next())
				}
				if v := math.Float64frombits(bits); !math.IsNaN(v) {
					sims[i][j] = v
				}
			}
		}
		labels[i] = i % 2
	}
	return MustNewInstance(sims, labels, 2)
}

// FuzzCandidateOrder is the differential test of the radix scan order
// against the MoreSimilar comparator sort. The seed corpus replays under
// plain `go test`.
func FuzzCandidateOrder(f *testing.F) {
	f.Add([]byte{3, 2, 4, 5, 1, 14, 2, 5, 15, 9})
	f.Add([]byte{7, 3, 0, 19, 4, 5, 15, 3, 0, 1, 9, 8, 2, 4, 14, 6, 3, 30, 31, 32, 1, 5, 3, 10, 11, 18, 1, 4, 5})
	f.Add([]byte{1, 3, 4, 14, 5, 15})
	f.Add([]byte{2, 1, 250, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 2, 250, 0x00, 0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4, 250, 0xbf, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 4, 1, 0, 14, 1, 4, 15, 2, 1, 2, 3, 0, 40, 2, 41, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCandidateOrder(t, "fuzz", decodeOrderCase(data))
	})
}
