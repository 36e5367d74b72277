package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

func TestEngineWorldCountUnderPins(t *testing.T) {
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{0}, {1}}, Label: 0},
		{Candidates: [][]float64{{2}, {3}, {4}}, Label: 1},
		{Candidates: [][]float64{{5}}, Label: 0},
	}, 2)
	e := NewEngine(d, knn.NegEuclidean{}, []float64{0})
	if e.WorldCount().Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("world count %s", e.WorldCount())
	}
	e.SetPin(1, 2)
	if e.WorldCount().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("pinned world count %s", e.WorldCount())
	}
	if e.PinnedCount() != 1 || e.Pin(1) != 2 || e.Pin(0) != -1 {
		t.Fatalf("pin state: count=%d pin(1)=%d", e.PinnedCount(), e.Pin(1))
	}
	e.SetPin(1, -1)
	if e.PinnedCount() != 0 {
		t.Fatal("unpin failed")
	}
}

func TestEngineSetPinValidation(t *testing.T) {
	inst := MustNewInstance([][]float64{{1, 2}}, []int{0}, 2)
	e := NewEngineFromInstance(inst)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pin accepted")
		}
	}()
	e.SetPin(0, 5)
}

// TestScratchReuseAcrossEngines covers the CPClean pattern: one scratch
// serving many engines built from the same dataset (identical shape).
func TestScratchReuseAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{0.1}, {0.9}}, Label: 0},
		{Candidates: [][]float64{{0.5}}, Label: 1},
		{Candidates: [][]float64{{0.3}, {0.7}}, Label: 1},
		{Candidates: [][]float64{{0.2}}, Label: 0},
	}, 2)
	engines := make([]*Engine, 5)
	for v := range engines {
		engines[v] = NewEngine(d, knn.NegEuclidean{}, []float64{rng.Float64()})
	}
	sc := engines[0].MustScratch(3)
	for v, e := range engines {
		shared := append([]float64(nil), e.Counts(sc, -1, -1)...)
		own := e.Counts(e.MustScratch(3), -1, -1)
		if d := maxAbsDiff(shared, own); d > 1e-12 {
			t.Fatalf("engine %d: shared-scratch counts differ by %g", v, d)
		}
	}
}

func TestHypothesisCountsRejectsPinnedRow(t *testing.T) {
	inst := MustNewInstance([][]float64{{1, 2}, {3}}, []int{0, 1}, 2)
	e := NewEngineFromInstance(inst)
	e.SetPin(0, 1)
	sc := e.MustScratch(1)
	defer func() {
		if recover() == nil {
			t.Fatal("HypothesisCounts on pinned row did not panic")
		}
	}()
	e.HypothesisCounts(sc, 0)
}

func TestInstanceForComputesKernelSims(t *testing.T) {
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{0}, {3}}, Label: 0},
	}, 2)
	inst := InstanceFor(d, knn.NegEuclidean{}, []float64{1})
	if inst.Sims[0][0] != -1 || inst.Sims[0][1] != -2 {
		t.Fatalf("sims %v", inst.Sims[0])
	}
}

func TestCheckFromExactAndNormalized(t *testing.T) {
	c := newExactCounts(2)
	c.Total.SetInt64(4)
	c.PerLabel[0].SetInt64(4)
	q1 := CheckFromExact(c)
	if !q1[0] || q1[1] {
		t.Fatalf("q1 = %v", q1)
	}
	qn := CheckFromNormalized([]float64{1, 0})
	if !qn[0] || qn[1] {
		t.Fatalf("qn = %v", qn)
	}
	if !IsCertain([]float64{1 - 1e-12, 1e-12}) {
		t.Fatal("near-one fraction not certain")
	}
	if IsCertain([]float64{0.6, 0.4}) {
		t.Fatal("0.6 reported certain")
	}
}

func TestArgmaxProb(t *testing.T) {
	if ArgmaxProb([]float64{0.2, 0.5, 0.3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgmaxProb([]float64{0.5, 0.5}) != 0 {
		t.Fatal("tie should go to the smaller label")
	}
}

// TestScratchPoolRejectsWrongShape checks a pool only deals in Scratches of
// its own shape: with equal K but different rows per label, SweepCounts and
// NewRetained reject the pool with an error (instead of a span worker
// panicking where no caller can recover), and Put panics on the foreign
// Scratch.
func TestScratchPoolRejectsWrongShape(t *testing.T) {
	sims := [][]float64{{0.1, 0.5}, {0.2}, {0.9, 0.3}, {0.4}, {0.7, 0.6}}
	a := NewEngineFromInstance(MustNewInstance(sims, []int{0, 0, 0, 1, 1}, 2))
	b := NewEngineFromInstance(MustNewInstance(sims, []int{0, 0, 1, 1, 1}, 2))
	pa, err := NewScratchPool(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewScratchPool(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.SweepCounts(2, false, SweepConfig{Workers: 2, MinSpanPositions: 1}, pb); err == nil {
		t.Fatal("SweepCounts accepted a pool of another shape")
	}
	if _, err := NewRetained(a, 2, false, pb); err == nil {
		t.Fatal("NewRetained accepted a pool of another shape")
	}
	if _, _, err := a.SweepCounts(2, false, SweepConfig{Workers: 2, MinSpanPositions: 1}, pa); err != nil {
		t.Fatalf("own pool rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put accepted a Scratch of another shape")
		}
	}()
	pa.Put(pb.Get())
}
