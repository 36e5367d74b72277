package core

import "testing"

// fuzzReader hands out the fuzz input one byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	v := int((*r)[0])
	*r = (*r)[1:]
	return v
}

// decodeQ2Case turns fuzz bytes into a tiny instance — N ≤ 6 rows of 1–3
// candidates, 2–3 labels, K in 1–3 — with similarities quantised to five
// levels so ties are common. The bytes left over drive the pin operations.
func decodeQ2Case(data []byte) (*Instance, int, fuzzReader) {
	r := fuzzReader(data)
	n := 1 + r.next()%6
	numLabels := 2 + r.next()%2
	k := min(1+r.next()%3, n)
	sims := make([][]float64, n)
	labels := make([]int, n)
	for i := range sims {
		sims[i] = make([]float64, 1+r.next()%3)
		for j := range sims[i] {
			sims[i][j] = float64(r.next()%5)/4 - 0.5
		}
		labels[i] = r.next() % numLabels
	}
	return MustNewInstance(sims, labels, numLabels), k, r
}

// pinnedInstance reduces inst to the engine's current pins: every pinned row
// keeps only its pinned candidate. Ties break by row before candidate, so the
// reduction keeps the scan order and brute force over it is the reference.
func pinnedInstance(e *Engine) *Instance {
	inst := e.Instance()
	sims := make([][]float64, inst.N())
	for i := range sims {
		if c := e.Pin(i); c >= 0 {
			sims[i] = []float64{inst.Sims[i][c]}
		} else {
			sims[i] = inst.Sims[i]
		}
	}
	return MustNewInstance(sims, inst.Labels, inst.NumLabels)
}

// FuzzQ2MatchesBruteForce is the differential test of every Q2 fast path:
// after each pin, unpin or ResetPins, Counts and CountsMC must match brute
// force over the pinned instance, and the span-parallel SweepCounts and a
// span-parallel Retained (tally and MC) must equal Counts / CountsMC bit for
// bit. The seed corpus replays under plain `go test`.
func FuzzQ2MatchesBruteForce(f *testing.F) {
	f.Add([]byte{5, 0, 2, 2, 1, 3, 0, 1, 2, 2, 2, 1, 0, 4, 3, 2, 1, 1, 1, 2, 2, 0, 7, 3, 1, 6, 0, 0, 9, 2})
	f.Add([]byte{3, 1, 1, 2, 0, 0, 1, 2, 2, 2, 2, 0, 2, 1, 2, 3, 4, 3, 7, 1, 0})
	f.Add([]byte{5, 1, 2, 1, 2, 2, 2, 3, 2, 2, 2, 1, 1, 2, 0, 4, 2, 2, 2, 2, 1, 1, 1, 0, 2, 2, 2, 2, 4, 5, 1, 8, 2, 1, 11, 1, 0, 3, 2, 5, 1})
	f.Add([]byte{0, 0, 0, 1, 3, 0})
	f.Add([]byte{2, 1, 2, 0, 1, 1, 1, 2, 2, 0, 4, 0, 2, 2, 3, 0, 6, 0, 2, 0, 2, 5, 2, 2, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, k, ops := decodeQ2Case(data)
		e := NewEngineFromInstance(inst)
		pool, err := NewScratchPool(e, k)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SweepConfig{Workers: 2, MinSpanPositions: 1}
		retained := make([]*Retained, 2) // tally, MC
		for i := range retained {
			if retained[i], err = NewRetained(e, k, i == 1, pool); err != nil {
				t.Fatal(err)
			}
			retained[i].ConfigureSweep(cfg)
		}
		sc := e.MustScratch(k)
		check := func(step int) {
			t.Helper()
			want, err := BruteForceCounts(pinnedInstance(e), k)
			if err != nil {
				t.Fatal(err)
			}
			for i, useMC := range []bool{false, true} {
				var got []float64
				if useMC {
					got = append(got, e.CountsMC(sc, -1, -1)...)
				} else {
					got = append(got, e.Counts(sc, -1, -1)...)
				}
				if d := maxAbsDiff(got, want.Normalize()); d > 1e-9 {
					t.Fatalf("step %d (mc=%v k=%d): off brute force by %g: got %v want %v",
						step, useMC, k, d, got, want.Normalize())
				}
				swept, _, err := e.SweepCounts(k, useMC, cfg, pool)
				if err != nil {
					t.Fatal(err)
				}
				rt := retained[i].Counts()
				for y := range got {
					if swept[y] != got[y] || rt[y] != got[y] {
						t.Fatalf("step %d (mc=%v k=%d): sweep %v retained %v sequential %v",
							step, useMC, k, swept, rt, got)
					}
				}
			}
		}
		check(0)
		for step := 1; step <= 8 && len(ops) > 0; step++ {
			switch op := ops.next(); op % 4 {
			case 0:
				e.ResetPins()
			case 1:
				e.SetPin(ops.next()%e.N(), -1)
			default:
				row := ops.next() % e.N()
				e.SetPin(row, ops.next()%inst.M(row))
			}
			check(step)
		}
	})
}
