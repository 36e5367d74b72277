package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/serve"
)

// sameAnswer compares a served point answer with the reference field by
// field with ==: the serving paths (result cache, retained memo, span-parallel
// sweep, plan cache) are all specified to be bit-identical to a fresh scan.
func sameAnswer(want, got serve.PointResult) error {
	if got.Prediction != want.Prediction {
		return fmt.Errorf("prediction %d, want %d", got.Prediction, want.Prediction)
	}
	if got.Certain != want.Certain {
		return fmt.Errorf("certain %v, want %v", got.Certain, want.Certain)
	}
	if got.Entropy != want.Entropy {
		return fmt.Errorf("entropy %v, want %v", got.Entropy, want.Entropy)
	}
	if len(got.Fractions) != len(want.Fractions) {
		return fmt.Errorf("%d fractions, want %d", len(got.Fractions), len(want.Fractions))
	}
	for i := range want.Fractions {
		if got.Fractions[i] != want.Fractions[i] {
			return fmt.Errorf("fractions[%d] %v, want %v", i, got.Fractions[i], want.Fractions[i])
		}
	}
	return nil
}

// checker computes reference answers lazily, memoized by (pin generation,
// point id): dataset queries use generation 0 and no pins.
type checker struct {
	d    *benchData
	pins [][2]int // reference step sequence (row, candidate)
	memo map[[2]int]serve.PointResult
}

func newChecker(d *benchData, pins [][2]int) *checker {
	return &checker{d: d, pins: pins, memo: make(map[[2]int]serve.PointResult)}
}

func (c *checker) ref(gen, id int) (serve.PointResult, error) {
	key := [2]int{gen, id}
	if r, ok := c.memo[key]; ok {
		return r, nil
	}
	if gen > len(c.pins) {
		return serve.PointResult{}, fmt.Errorf("generation %d beyond the %d reference steps", gen, len(c.pins))
	}
	pred, certain, ent, fr, err := c.d.reference(c.d.point(id), c.pins[:gen])
	if err != nil {
		return serve.PointResult{}, err
	}
	r := serve.PointResult{Prediction: pred, Certain: certain, Entropy: ent, Fractions: fr}
	c.memo[key] = r
	return r, nil
}

// checkBody verifies one batch response against the references for some
// generation in [lo, hi] (a session query races the step lane, so any
// prefix between the steps acknowledged before it was sent and the steps
// sent before it completed is a correct answer).
func (c *checker) checkBody(body []byte, ids []int, lo, hi int) error {
	var res serve.BatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if res.K != c.d.k || len(res.Results) != len(ids) {
		return fmt.Errorf("k=%d with %d results, want k=%d with %d", res.K, len(res.Results), c.d.k, len(ids))
	}
	var firstErr error
	for gen := lo; gen <= hi; gen++ {
		err := c.checkGen(res, ids, gen)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("generation %d: %w", gen, err)
		}
	}
	return firstErr
}

func (c *checker) checkGen(res serve.BatchResult, ids []int, gen int) error {
	certain := 0
	for i, id := range ids {
		want, err := c.ref(gen, id)
		if err != nil {
			return err
		}
		if err := sameAnswer(want, res.Results[i]); err != nil {
			return fmt.Errorf("point %d: %w", id, err)
		}
		if want.Certain {
			certain++
		}
	}
	if cf := float64(certain) / float64(len(ids)); res.CertainFraction != cf {
		return fmt.Errorf("certain_fraction %v, want %v", res.CertainFraction, cf)
	}
	return nil
}
