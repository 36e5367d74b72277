package core

import (
	"math/rand"
	"testing"
)

// comparePlan fails unless (gotES, got) and (wantES, want) are
// field-for-field identical plans: same transition, same span boundaries,
// same zero-row counts, same α snapshots.
func comparePlan(t *testing.T, label string, gotES int, got []sweepSpan, wantES int, want []sweepSpan) {
	t.Helper()
	if gotES != wantES {
		t.Fatalf("%s: emitStart=%d want %d", label, gotES, wantES)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d spans want %d", label, len(got), len(want))
	}
	for s := range want {
		g, w := got[s], want[s]
		if g.lo != w.lo || g.hi != w.hi || g.zeroRows != w.zeroRows {
			t.Fatalf("%s: span %d = [%d,%d] zr=%d want [%d,%d] zr=%d",
				label, s, g.lo, g.hi, g.zeroRows, w.lo, w.hi, w.zeroRows)
		}
		for i := range w.alpha {
			if g.alpha[i] != w.alpha[i] {
				t.Fatalf("%s: span %d alpha[%d]=%d want %d", label, s, i, g.alpha[i], w.alpha[i])
			}
		}
	}
}

// TestPlanCacheMatchesPlanSpans is the exactness property of the plan slot:
// across random pin/unpin/reset sequences, every planFor answer — whether it
// came back verbatim or was rebuilt — must match an uncached planSpans run
// under the current pins field-for-field, and must carry the current pin
// generation (a stale plan is never served across a generation bump).
func TestPlanCacheMatchesPlanSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gens := []func(*rand.Rand, int, int, int) *Instance{randomInstance, tiedInstance, nearZeroInstance}
	var total PlanStats
	for trial := 0; trial < 40; trial++ {
		inst := gens[trial%len(gens)](rng, 8+rng.Intn(16), 4, 2+rng.Intn(2))
		k := 1 + rng.Intn(3)
		e := NewEngineFromInstance(inst)
		n := len(e.order)
		// Repeated span counts hit the slot; switching span count, or a pin
		// op in between, replaces it.
		spanCounts := []int{4, 4, 7, 7}
		for step := 0; step < 8; step++ {
			if step > 0 {
				applyRandomPinOp(rng, e)
			}
			for _, numSpans := range spanCounts {
				p := e.planFor(k, numSpans)
				if p.gen != e.PinGeneration() {
					t.Fatalf("trial %d step %d: plan served at gen %d, engine at %d",
						trial, step, p.gen, e.PinGeneration())
				}
				wantES, want := e.planSpans(k, 0, n-1, numSpans)
				comparePlan(t, "planFor vs planSpans", p.emitStart, p.spans, wantES, want)
			}
		}
		st := e.PlanStats()
		if st.Hits+st.Misses != int64(len(spanCounts)*8) {
			t.Fatalf("trial %d: stats %+v do not sum to %d lookups", trial, st, len(spanCounts)*8)
		}
		total.Add(st)
	}
	// The random walk must actually have exercised both outcomes; a vanishing
	// count means a branch went dead, not that the property got easier.
	if total.Hits == 0 || total.Misses == 0 {
		t.Fatalf("outcomes not all exercised: %+v", total)
	}
}

// TestPlanCacheRepeatAndReset pins the two ends of the invalidation
// spectrum: an unchanged generation serves the identical plan object as a
// pure hit, and a ResetPins always forces a full re-plan.
func TestPlanCacheRepeatAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	inst := randomInstance(rng, 30, 4, 2)
	e := NewEngineFromInstance(inst)
	n := len(e.order)

	p1 := e.planFor(2, 4)
	p2 := e.planFor(2, 4)
	if p1 != p2 {
		t.Fatal("repeat lookup at the same generation returned a different plan object")
	}
	if st := e.PlanStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("expected 1 hit + 1 miss, got %+v", st)
	}

	e.ResetPins()
	p3 := e.planFor(2, 4)
	if st := e.PlanStats(); st.Misses != 2 {
		t.Fatalf("ResetPins must force a re-plan, got %+v", st)
	}
	wantES, want := e.planSpans(2, 0, n-1, 4)
	comparePlan(t, "post-reset", p3.emitStart, p3.spans, wantES, want)

	// Overflow the bounded pin log between lookups: the plan must rebuild
	// (miss), never serve stale snapshots.
	row := 0
	for i := 0; i < maxPinLog+8; i++ {
		e.SetPin(row, 0)
		e.SetPin(row, -1)
	}
	p4 := e.planFor(2, 4)
	wantES, want = e.planSpans(2, 0, n-1, 4)
	comparePlan(t, "post-overflow", p4.emitStart, p4.spans, wantES, want)
	if p4.gen != e.PinGeneration() {
		t.Fatalf("post-overflow plan at gen %d, engine at %d", p4.gen, e.PinGeneration())
	}
}
