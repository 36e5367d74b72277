package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/serve"
)

// smallData is a hand-built incomplete dataset with uncertain rows close to
// the test points, so answers depend on the pins.
func smallData(t *testing.T) *benchData {
	t.Helper()
	ex := []dataset.Example{
		{Candidates: [][]float64{{0, 0}}, Label: 0},
		{Candidates: [][]float64{{1, 0}, {5, 5}}, Label: 1},
		{Candidates: [][]float64{{0, 1}, {4, 4}, {0.5, 0.5}}, Label: 1},
		{Candidates: [][]float64{{2, 2}}, Label: 0},
		{Candidates: [][]float64{{1, 1}, {3, 0}}, Label: 0},
		{Candidates: [][]float64{{0.2, 0.1}}, Label: 1},
	}
	ds, err := dataset.New(ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &benchData{ds: ds, kernel: knn.NegEuclidean{}, k: 3,
		test: [][]float64{{0.5, 0.2}, {1.5, 1.5}, {3, 3}}, perm: []int{0, 1, 2}}
}

// served builds the response body cpserve would send for ids at generation
// gen, from the checker's own references.
func served(t *testing.T, ck *checker, ids []int, gen int) serve.BatchResult {
	t.Helper()
	res := serve.BatchResult{K: ck.d.k}
	certain := 0
	for _, id := range ids {
		r, err := ck.ref(gen, id)
		if err != nil {
			t.Fatal(err)
		}
		r.Fractions = append([]float64(nil), r.Fractions...)
		res.Results = append(res.Results, r)
		if r.Certain {
			certain++
		}
	}
	res.CertainFraction = float64(certain) / float64(len(ids))
	return res
}

func body(t *testing.T, res serve.BatchResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerAcceptsExactAnswer(t *testing.T) {
	d := smallData(t)
	ck := newChecker(d, [][2]int{{1, 1}, {2, 2}})
	ids := []int{0, 1, 2}
	for gen := 0; gen <= 2; gen++ {
		if err := ck.checkBody(body(t, served(t, ck, ids, gen)), ids, gen, gen); err != nil {
			t.Errorf("generation %d: exact answer rejected: %v", gen, err)
		}
	}
	// A session query racing a step may reflect either side of it.
	if err := ck.checkBody(body(t, served(t, ck, ids, 2)), ids, 1, 2); err != nil {
		t.Errorf("answer at the upper generation rejected: %v", err)
	}
}

func TestCheckerRejectsTamperedFractions(t *testing.T) {
	d := smallData(t)
	ck := newChecker(d, nil)
	ids := []int{0, 1, 2}
	res := served(t, ck, ids, 0)
	res.Results[1].Fractions[0] = math.Nextafter(res.Results[1].Fractions[0], 2)
	if err := ck.checkBody(body(t, res), ids, 0, 0); err == nil {
		t.Fatal("a fraction one ulp off was accepted")
	}
}

func TestCheckerRejectsFlippedCertain(t *testing.T) {
	d := smallData(t)
	ck := newChecker(d, nil)
	ids := []int{0, 1, 2}
	res := served(t, ck, ids, 0)
	res.Results[2].Certain = !res.Results[2].Certain
	if err := ck.checkBody(body(t, res), ids, 0, 0); err == nil {
		t.Fatal("a flipped certain flag was accepted")
	}
}

func TestCheckerRejectsWrongGeneration(t *testing.T) {
	d := smallData(t)
	// Pin the uncertain rows far from the test points so the answers move.
	ck := newChecker(d, [][2]int{{1, 1}, {2, 1}, {4, 1}})
	ids := []int{0, 1, 2}
	stale := body(t, served(t, ck, ids, 0))
	if err := ck.checkBody(stale, ids, 3, 3); err == nil {
		t.Fatal("an answer from before the pins was accepted for the pinned generation")
	}
}
