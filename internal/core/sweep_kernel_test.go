package core

import (
	"math/rand"
	"testing"
)

// TestScanFlatMatchesCallback is the lockstep contract of the flat scan
// kernel: for worker counts 1/2/4/8 × tally/MC accumulators × random pin
// states, every position's term stream produced by scanSpanFlat (via
// runSpans' flat results) must equal the callback reference kernel
// (scanPositions) bit for bit — same terms, same order, same per-position
// boundaries.
func TestScanFlatMatchesCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	gens := []func(*rand.Rand, int, int, int) *Instance{randomInstance, tiedInstance, nearZeroInstance}
	for trial := 0; trial < 30; trial++ {
		inst := gens[trial%len(gens)](rng, 8+rng.Intn(16), 4, 2+rng.Intn(2))
		k := 1 + rng.Intn(3)
		e := NewEngineFromInstance(inst)
		pool, err := NewScratchPool(e, k)
		if err != nil {
			t.Fatal(err)
		}
		total := len(e.order)
		for step := 0; step < 3; step++ {
			if step > 0 {
				applyRandomPinOp(rng, e)
			}
			for _, useMC := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4, 8} {
					_, spans := e.planSpans(k, 0, total-1, workers*spansPerWorker)
					if len(spans) == 0 {
						continue
					}
					// Callback reference: each span replayed sequentially
					// through scanPositions into per-position streams.
					perPos := make([][]term, total)
					for _, sp := range spans {
						sc := pool.Get()
						copy(sc.alpha, sp.alpha)
						built := sp.zeroRows <= k-1
						if built {
							e.buildLeaves(sc, -1, -1)
						}
						e.scanPositions(sc, sp.lo, sp.hi, sp.zeroRows, built, useMC, func(pos int) *[]term {
							return &perPos[pos]
						})
						pool.Put(sc)
					}
					// Flat kernel under real worker fan-out.
					results := make([]spanResult, len(spans))
					e.runSpans(spans, useMC, workers, pool, results)
					for s, sp := range spans {
						res := results[s]
						if len(res.offs) != sp.hi-sp.lo+2 {
							t.Fatalf("trial %d step %d (mc=%v w=%d): span %d offs len %d want %d",
								trial, step, useMC, workers, s, len(res.offs), sp.hi-sp.lo+2)
						}
						if int(res.offs[len(res.offs)-1]) != len(res.terms) {
							t.Fatalf("span %d: final offset %d != %d terms", s, res.offs[len(res.offs)-1], len(res.terms))
						}
						for pi := 0; pi <= sp.hi-sp.lo; pi++ {
							pos := sp.lo + pi
							got := res.terms[res.offs[pi]:res.offs[pi+1]]
							want := perPos[pos]
							if len(got) != len(want) {
								t.Fatalf("trial %d step %d (mc=%v w=%d): pos %d has %d terms want %d",
									trial, step, useMC, workers, pos, len(got), len(want))
							}
							for ti := range want {
								if got[ti] != want[ti] {
									t.Fatalf("trial %d step %d (mc=%v w=%d): pos %d term %d = %+v want %+v",
										trial, step, useMC, workers, pos, ti, got[ti], want[ti])
								}
							}
						}
					}
				}
			}
		}
	}
}

// benchKernelEngine builds a mid-sized engine plus a scratch for the kernel
// benchmarks below.
func benchKernelEngine() (*Engine, *Scratch, int) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 400, 4, 3)
	e := NewEngineFromInstance(inst)
	return e, e.MustScratch(3), len(e.order)
}

// BenchmarkScanPositions_Callback measures the callback-dispatch reference
// kernel over a full scan.
func BenchmarkScanPositions_Callback(b *testing.B) {
	e, sc, total := benchKernelEngine()
	perPos := make([][]term, total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sc.alpha {
			sc.alpha[j] = 0
		}
		for pos := range perPos {
			perPos[pos] = perPos[pos][:0]
		}
		e.scanPositions(sc, 0, total-1, e.N(), false, false, func(pos int) *[]term {
			return &perPos[pos]
		})
	}
}

// BenchmarkScanPositions_Flat measures the flat-layout kernel over the same
// scan; the delta against _Callback is the dispatch + per-position slice
// overhead the flat layout removes.
func BenchmarkScanPositions_Flat(b *testing.B) {
	e, sc, total := benchKernelEngine()
	var out spanResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sc.alpha {
			sc.alpha[j] = 0
		}
		e.scanSpanFlat(sc, 0, total-1, e.N(), false, false, -1, -1, &out)
	}
}
