package core

import (
	"sync"
	"sync/atomic"
)

// This file implements the span-parallel SS-DC sweep: the boundary-candidate
// scan of Engine.Counts / Engine.CountsMC split into contiguous spans that
// run on worker goroutines, with the answer re-summed in original scan order
// so it is bit-for-bit identical to the sequential sweep.
//
// Why this is exact: the scan's only cross-position state is the α vector
// (candidates of each row already passed) and the segment trees derived from
// it. A cheap sequential prefix pass — pure integer work, no tree updates —
// replays the α trajectory and snapshots it at each span start; a span worker
// bulk-rebuilds its trees from the snapshot, which the segment tree's purity
// invariant (internal/segtree) guarantees reproduces exactly the node values
// a sequential scan would carry into that position. Each position's support
// contributions are captured as an ordered term stream (the kernel's record
// sink) instead of being added into a shared accumulator, and the reducer
// re-adds every term in scan order — the same operands in the same sequence
// as the sequential sweep, hence the same floats.
// TestSweepCountsMatchesSequential and the extended
// TestRetainedMatchesFreshSSDC harness pin the property across worker counts,
// accumulators, ties, and near-zero weights.

// DefaultMinSpanPositions is the smallest span the planner will create when
// SweepConfig.MinSpanPositions is zero (spans also never shrink below N/4 in
// that case — each span pays an O(N·K²) tree rebuild, so spans much shorter
// than N would spend more time rebuilding than scanning).
const DefaultMinSpanPositions = 256

// spansPerWorker oversubscribes spans relative to workers so a worker that
// drew a cheap span can steal another instead of idling at the barrier.
const spansPerWorker = 2

// SweepConfig tunes the span-parallel sweep. The zero value means fully
// sequential.
type SweepConfig struct {
	// Workers is the number of span workers; values ≤ 1 select the
	// sequential scan.
	Workers int
	// MinSpanPositions floors the span length. 0 applies
	// DefaultMinSpanPositions (and an N/4 floor); tests force tiny spans
	// with 1 to exercise multi-span plans on small instances.
	MinSpanPositions int
}

// SweepStats counts span-parallel sweep executions. All fields are
// monotonically increasing totals.
type SweepStats struct {
	// ParallelSweeps counts scans that actually ran the span-parallel path
	// (plans with ≥ 2 spans and ≥ 2 workers).
	ParallelSweeps int64 `json:"parallel_sweeps"`
	// Spans counts spans executed across all parallel sweeps.
	Spans int64 `json:"spans"`
	// Steals counts spans executed by a worker other than the one the plan's
	// round-robin assignment would have given them to — work that migrated to
	// keep every worker busy.
	Steals int64 `json:"steals"`
}

// Add accumulates other into s.
func (s *SweepStats) Add(other SweepStats) {
	s.ParallelSweeps += other.ParallelSweeps
	s.Spans += other.Spans
	s.Steals += other.Steals
}

// spanFloor resolves the effective minimum span length for an N-row engine.
func (cfg SweepConfig) spanFloor(n int) int {
	if cfg.MinSpanPositions > 0 {
		return cfg.MinSpanPositions
	}
	floor := DefaultMinSpanPositions
	if nf := n / 4; nf > floor {
		floor = nf
	}
	return floor
}

// planSize sizes a plan for a window of `window` scan positions: the worker
// count actually usable and the span count. numSpans < 2 means the window is
// too small to be worth splitting — run sequentially.
func (cfg SweepConfig) planSize(n, window int) (workers, numSpans int) {
	workers = cfg.Workers
	if workers <= 1 {
		return workers, 1
	}
	numSpans = workers * spansPerWorker
	if maxSpans := window / cfg.spanFloor(n); numSpans > maxSpans {
		numSpans = maxSpans
	}
	return workers, numSpans
}

// deltaPlanSize sizes the span plan for a windowed delta replay. The per-span
// cost that bounds the floor is the O(N·K²) tree rebuild, and a delta window
// is short next to N, so the span floor drops to a quarter of the full-sweep
// default, letting hot windows well below the full sweep's floor still fan
// out across workers. An explicit MinSpanPositions is honored unchanged.
func (cfg SweepConfig) deltaPlanSize(window int) (workers, numSpans int) {
	workers = cfg.Workers
	if workers <= 1 {
		return workers, 1
	}
	floor := cfg.MinSpanPositions
	if floor <= 0 {
		floor = DefaultMinSpanPositions / 4
	}
	numSpans = workers * spansPerWorker
	if maxSpans := window / floor; numSpans > maxSpans {
		numSpans = maxSpans
	}
	return workers, numSpans
}

// sweepSpan is one contiguous run of scan positions plus the α state a
// sequential scan would carry into its first position.
type sweepSpan struct {
	lo, hi   int     // inclusive scan-position range
	zeroRows int     // rows with α = 0 entering lo
	alpha    []int32 // α snapshot entering lo (length N)
}

// planSpans runs the sequential prefix pass for a scan of window [lo, hi]
// under the engine's current pins: it replays the α trajectory from position
// 0, finds the zero-rows transition — the first position in the window whose
// boundary support is not provably zero — and splits the emitting tail
// [emitStart, hi] into up to numSpans spans, snapshotting α at each span
// start. Positions in [lo, emitStart) provably contribute no terms (while
// more than K−1 rows still have all their candidates ahead of the boundary,
// the boundary can never be in the top-K); callers only need to clear any
// retained terms there. Pure integer work, no tree operations: α updates up
// to the last span's start plus one N-length snapshot copy per earlier span
// (the last span keeps the walk's own α).
func (e *Engine) planSpans(k, lo, hi, numSpans int) (emitStart int, spans []sweepSpan) {
	alpha := make([]int32, e.N())
	zeroRows := e.N()
	for pos := 0; pos < lo; pos++ {
		zeroRows = e.advanceAlpha(pos, alpha, zeroRows)
	}
	// Find the transition without consuming it: a position emits iff after
	// its own α increment zeroRows ≤ K−1, and zeroRows is monotone
	// non-increasing, so the first such position starts the emitting tail.
	emitStart = lo
	for ; emitStart <= hi && zeroRows > k-1; emitStart++ {
		ref := e.order[emitStart]
		i := int(ref.row)
		ch := int(e.pins[i])
		valid := ch < 0 || int(ref.cand) == ch
		if valid && alpha[i] == 0 && zeroRows-1 <= k-1 {
			break // this position's own increment crosses the threshold
		}
		zeroRows = e.advanceAlpha(emitStart, alpha, zeroRows)
	}
	window := hi - emitStart + 1
	if window <= 0 {
		return emitStart, nil
	}
	if numSpans > window {
		numSpans = window
	}
	if numSpans < 1 {
		numSpans = 1
	}
	spanLen := (window + numSpans - 1) / numSpans
	pos := emitStart
	for start := emitStart; start <= hi; start += spanLen {
		for ; pos < start; pos++ {
			zeroRows = e.advanceAlpha(pos, alpha, zeroRows)
		}
		sp := sweepSpan{lo: start, hi: min(start+spanLen-1, hi), zeroRows: zeroRows, alpha: alpha}
		if sp.hi < hi {
			sp.alpha = append([]int32(nil), alpha...)
		}
		// The last span keeps the walk's own α: nothing advances it further.
		spans = append(spans, sp)
	}
	return emitStart, spans
}

// scanPositions is the callback-dispatch reference kernel: it replays scan
// positions [lo, hi] with real tree work under the engine's current pins,
// appending each position's support terms to *rec(pos). rec is invoked for
// every position in the range — including eliminated candidates and
// provably-zero prefixes, which append nothing — so recorders that retain
// per-position streams can truncate stale state.
//
// Production sweeps run scanSpanFlat instead; this kernel is kept as the
// independent reference the lockstep test (TestScanFlatMatchesCallback) and
// the kernel benchmark (BenchmarkScanPositions_Callback) compare against.
//
// Preconditions: sc.alpha holds the α state a sequential scan carries into
// position lo, zeroRows counts its zero rows, and built reports whether sc's
// trees already reflect sc.alpha (when false they are bulk-built at the
// transition, exactly as Engine.Counts does). Returns the number of positions
// that performed tree work.
func (e *Engine) scanPositions(sc *Scratch, lo, hi, zeroRows int, built, useMC bool, rec func(pos int) *[]term) int64 {
	inst := e.inst
	var scanned int64
	for pos := lo; pos <= hi; pos++ {
		ref := e.order[pos]
		i, j := int(ref.row), int(ref.cand)
		buf := rec(pos)
		ch := int(e.pins[i])
		if ch >= 0 && j != ch {
			continue // candidate eliminated by cleaning
		}
		mEff := inst.M(i)
		if ch >= 0 {
			mEff = 1
		}
		sc.alpha[i]++
		if sc.alpha[i] == 1 {
			zeroRows--
		}
		if zeroRows > sc.k-1 {
			continue // provably zero boundary support (empty term stream)
		}
		if !built {
			e.buildLeaves(sc, -1, -1)
			built = true
		}
		a := float64(sc.alpha[i]) / float64(mEff)
		tr := sc.trees[e.labelOf[i]]
		p := e.rowPos[i]
		// Collapse the row's leaf onto the boundary (one top-K slot, 1/mEff
		// weight on this candidate), record the supports, restore the leaf to
		// its scanned-α state — the same force/restore pair as Counts.
		tr.SetLeaf(p, 0, 1/float64(mEff))
		if useMC {
			*buf = e.accumulateMC(sc, nil, *buf)
		} else {
			*buf = accumulateTally(sc, sc.rootsNormal, nil, *buf)
		}
		tr.SetLeaf(p, a, 1-a)
		scanned++
	}
	return scanned
}

// spanResult is one span's flat scan output: every term its positions record,
// concatenated in scan order, plus per-position offsets — the stream of
// position lo+i is terms[offs[i]:offs[i+1]] (empty for eliminated candidates
// and provably-zero positions). The layout replaces per-position callback
// dispatch and per-position slice headers with one flat append stream per
// span, and lets reducers splice whole spans with two copies.
type spanResult struct {
	terms []term
	offs  []int32 // len = span length + 1
}

// scanSpanFlat is the SS-DC boundary-candidate scan kernel (§3.1.3, appendix
// A.2) that every production Q2 sweep runs: it replays scan positions
// [lo, hi] with real tree work under the engine's current pins plus an
// optional per-query override (overrideRow −1 for none). The sink is out:
// nil adds every support straight into sc.counts (Counts, CountsMC);
// otherwise each position's terms are recorded into out's flat layout (span
// workers, Retained). It performs identical tree operations in identical
// order to scanPositions — the lockstep test pins stream-for-stream equality
// across worker counts and accumulators.
//
// Preconditions: sc.alpha holds the α state a sequential scan carries into
// lo, zeroRows counts its zero rows, and built reports whether sc's trees
// already reflect sc.alpha (when false they are bulk-built at the zero-rows
// transition). Returns the number of positions that performed tree work.
func (e *Engine) scanSpanFlat(sc *Scratch, lo, hi, zeroRows int, built, useMC bool, overrideRow, overrideCand int, out *spanResult) int64 {
	inst := e.inst
	order := e.order
	pins := e.pins
	labelOf := e.labelOf
	rowPos := e.rowPos
	alpha := sc.alpha
	k := sc.k
	// The sink: with out == nil supports add into sc.counts; otherwise the
	// accumulators see a nil add target and record into terms instead.
	counts := sc.counts
	var terms []term
	var offs []int32
	if out != nil {
		counts = nil
		terms, offs = out.terms[:0], out.offs[:0]
	}
	var scanned int64
	for _, ref := range order[lo : hi+1] {
		if out != nil {
			offs = append(offs, int32(len(terms)))
		}
		i := int(ref.row)
		ch := int(pins[i])
		if i == overrideRow {
			ch = overrideCand
		}
		if ch >= 0 && int(ref.cand) != ch {
			continue // candidate eliminated by cleaning
		}
		alpha[i]++
		if alpha[i] == 1 {
			zeroRows--
		}
		// Every row with α = 0 must place a candidate in the top-K, so while
		// more than K−1 remain the boundary support is identically zero and
		// only α is maintained; the trees are bulk-built at the transition.
		if zeroRows > k-1 {
			continue
		}
		if !built {
			e.buildLeaves(sc, overrideRow, overrideCand)
			built = true
		}
		mEff := inst.M(i)
		if ch >= 0 {
			mEff = 1
		}
		a := float64(alpha[i]) / float64(mEff)
		tr := sc.trees[labelOf[i]]
		p := rowPos[i]
		// Force the row onto the boundary — one top-K slot, probability
		// 1/mEff of picking this candidate — take the supports, then restore
		// the leaf to its scanned state [α/M, 1−α/M].
		tr.SetLeaf(p, 0, 1/float64(mEff))
		if useMC {
			terms = e.accumulateMC(sc, counts, terms)
		} else {
			terms = accumulateTally(sc, sc.rootsNormal, counts, terms)
		}
		tr.SetLeaf(p, a, 1-a)
		scanned++
	}
	if out != nil {
		out.terms = terms
		out.offs = append(offs, int32(len(terms)))
	}
	return scanned
}

// runSpan seeds sc from the span's α snapshot — bulk-building the trees when
// the span starts past the zero-rows transition — and scans it into out.
func (e *Engine) runSpan(sc *Scratch, sp sweepSpan, useMC bool, out *spanResult) int64 {
	copy(sc.alpha, sp.alpha)
	built := sp.zeroRows <= sc.k-1
	if built {
		e.buildLeaves(sc, -1, -1)
	}
	return e.scanSpanFlat(sc, sp.lo, sp.hi, sp.zeroRows, built, useMC, -1, -1, out)
}

// runSpans executes planned spans into results, which must have len(spans)
// elements. With fewer than two spans or workers the spans run in order on
// the calling goroutine and the returned SweepStats are zero. Otherwise
// workers pull span indices from a shared counter — span s "belongs" to
// worker s mod workers, and a pull by any other worker counts as a steal —
// and each holds one pooled Scratch for all the spans it runs; workers write
// disjoint results, so no cross-worker synchronization is needed. Spans are
// read-only here. Returns the sweep counters and the total positions that
// performed tree work.
func (e *Engine) runSpans(spans []sweepSpan, useMC bool, workers int, scratches *ScratchPool, results []spanResult) (SweepStats, int64) {
	if workers > len(spans) {
		workers = len(spans)
	}
	if workers <= 1 {
		var scanned int64
		if len(spans) > 0 {
			sc := scratches.Get()
			defer scratches.Put(sc)
			for s, sp := range spans {
				scanned += e.runSpan(sc, sp, useMC, &results[s])
			}
		}
		return SweepStats{}, scanned
	}
	var nextSpan, steals, scanned atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := scratches.Get()
			defer scratches.Put(sc)
			for {
				s := int(nextSpan.Add(1)) - 1
				if s >= len(spans) {
					return
				}
				if s%workers != w {
					steals.Add(1)
				}
				scanned.Add(e.runSpan(sc, spans[s], useMC, &results[s]))
			}
		}(w)
	}
	wg.Wait()
	return SweepStats{ParallelSweeps: 1, Spans: int64(len(spans)), Steals: steals.Load()}, scanned.Load()
}

// SweepCounts answers Q2 under the engine's current pins with the
// span-parallel sweep, returning a freshly allocated fraction slice that is
// bit-for-bit identical to Engine.Counts (useMC false) or Engine.CountsMC
// (useMC true). scratches lends each worker its scan state and must match
// the engine's shape and K. When cfg requests no parallelism — or the scan is
// too small to split profitably — it falls back to the sequential sweep
// (stats all zero).
func (e *Engine) SweepCounts(k int, useMC bool, cfg SweepConfig, scratches *ScratchPool) ([]float64, SweepStats, error) {
	if err := validateK(e.inst, k); err != nil {
		return nil, SweepStats{}, err
	}
	if scratches != nil {
		if err := scratches.check(e, k); err != nil {
			return nil, SweepStats{}, err
		}
	}
	counts := make([]float64, e.numLabels)
	workers, numSpans := cfg.planSize(e.N(), len(e.order))
	var spans []sweepSpan
	if scratches != nil && workers > 1 && numSpans >= 2 {
		spans = e.planFor(k, numSpans).spans
	}
	if len(spans) < 2 {
		// Sequential: nothing to split, or the emitting tail collapsed below
		// two spans (late zero-rows transition).
		var sc *Scratch
		if scratches != nil {
			sc = scratches.Get()
			defer scratches.Put(sc)
		} else {
			sc = newScratchFromShape(e.shape(), k)
		}
		copy(counts, e.countsWith(sc, useMC, -1, -1))
		return counts, SweepStats{}, nil
	}
	// Each span records into its own flat term stream; appends within a span
	// are already in scan order, so the reducer just walks spans in order.
	results := make([]spanResult, len(spans))
	stats, _ := e.runSpans(spans, useMC, workers, scratches, results)
	for s := range results {
		for _, t := range results[s].terms {
			counts[t.y] += t.v
		}
	}
	return counts, stats, nil
}
