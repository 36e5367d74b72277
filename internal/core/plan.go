package core

// This file holds the engine's sweep-plan slot: the output of one full-window
// planSpans prefix pass, kept so a repeated sweep of an unchanged engine skips
// the O(NM) α walk. The slot holds at most one plan and serves it only when
// the pin generation, K and span count all match; anything else re-plans and
// replaces it. Plans are immutable once stored, so scan workers read their
// spans without a lock. Two concurrent misses may both plan and the last
// store wins — wasted work, never a wrong plan, because both are computed at
// the same generation (pin mutations are never concurrent with queries).

// SweepPlan is the output of one full-window planSpans pass: the emit
// transition and the planned spans with their α snapshots, valid for pin
// generation gen. Read-only after it is stored.
type SweepPlan struct {
	k, numSpans int
	gen         uint64 // pin generation the snapshots are valid for
	emitStart   int
	spans       []sweepSpan
}

// PlanStats counts plan-slot outcomes. All fields are monotonically
// increasing totals.
type PlanStats struct {
	// Hits counts plans served verbatim from the slot (same generation, K
	// and span count).
	Hits int64 `json:"hits"`
	// Partials is always 0: no plan is ever repaired in place. The field
	// stays so existing readers of the stats keep compiling.
	Partials int64 `json:"partials"`
	// Misses counts planSpans passes run for span-parallel sweeps: slot
	// misses plus Retained's windowed delta plans.
	Misses int64 `json:"misses"`
}

// Add accumulates other into s.
func (s *PlanStats) Add(other PlanStats) {
	s.Hits += other.Hits
	s.Partials += other.Partials
	s.Misses += other.Misses
}

// advanceAlpha applies scan position pos to an α trajectory under the
// engine's current pins, returning the updated zero-row count.
func (e *Engine) advanceAlpha(pos int, alpha []int32, zeroRows int) int {
	ref := e.order[pos]
	i := int(ref.row)
	if ch := int(e.pins[i]); ch >= 0 && int(ref.cand) != ch {
		return zeroRows
	}
	alpha[i]++
	if alpha[i] == 1 {
		zeroRows--
	}
	return zeroRows
}

// planFor returns the full-window span plan with numSpans spans under the
// engine's current pins: the slot's plan when it was made at this pin
// generation for the same K and span count, a fresh planSpans pass (which
// then replaces the slot) otherwise. Callers treat the spans as read-only.
func (e *Engine) planFor(k, numSpans int) *SweepPlan {
	gen := e.pinGen // pin mutations are never concurrent with queries
	if p := e.plan.Load(); p != nil && p.gen == gen && p.k == k && p.numSpans == numSpans {
		e.planHits.Add(1)
		return p
	}
	emitStart, spans := e.planSpans(k, 0, len(e.order)-1, numSpans)
	p := &SweepPlan{k: k, numSpans: numSpans, gen: gen, emitStart: emitStart, spans: spans}
	e.plan.Store(p)
	e.planMisses.Add(1)
	return p
}

// PlanStats snapshots the engine's plan-slot counters.
func (e *Engine) PlanStats() PlanStats {
	return PlanStats{Hits: e.planHits.Load(), Misses: e.planMisses.Load()}
}

// planBytes is the slot's snapshot footprint, for byte-budgeted caches.
func (e *Engine) planBytes() int64 {
	p := e.plan.Load()
	if p == nil {
		return 0
	}
	b := int64(64)
	for i := range p.spans {
		b += int64(cap(p.spans[i].alpha))*4 + 32
	}
	return b
}
