package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// sessionQueryCache answers batch CP queries against a clean session's
// *current* pin state: per (K, test point) it keeps a private engine with the
// session's executed cleaning steps applied as pins, plus the retained-tree
// query memo (core.Retained) keyed by the engine's pin generation. A batch
// Q2 repeated while the session pins rows therefore reuses the prior tree
// state — an unchanged session is a pure memo hit, a session that pinned
// irrelevant rows since is too, and a relevant pin replays only its
// candidate-span window instead of a full SS-DC sweep.
//
// The cache is independent of the session's cleaning engines, so queries run
// concurrently with the (single-goroutine) driver: the driver appends to the
// session history under sess.mu, queries snapshot that history and catch
// their cached engines up pin by pin under each entry's own lock.
type sessionQueryCache struct {
	ds  *Dataset
	cfg Config

	mu    sync.Mutex
	cache *lruBudget[*squeryEntry] // guarded by mu

	// Lifetime counters, surviving entry eviction. queries counts points
	// answered; the rest mirror core.RetainedStats / core.SweepStats.
	queries     atomic.Int64
	fullScans   atomic.Int64
	memoHits    atomic.Int64
	deltaScans  atomic.Int64
	scanned     atomic.Int64
	avoided     atomic.Int64
	sweepPar    atomic.Int64
	sweepSpans  atomic.Int64
	sweepSteals atomic.Int64
}

// squeryEntry is one (K, point) pinned engine + retained memo. mu serializes
// use; last/lastSweep hold the retained stats already folded into the cache
// counters.
type squeryEntry struct {
	key string
	k   int
	pt  []float64

	mu        sync.Mutex
	engine    *core.Engine
	retained  *core.Retained
	applied   int // session history steps applied as pins
	last      core.RetainedStats
	lastSweep core.SweepStats
}

func newSessionQueryCache(ds *Dataset, cfg Config) *sessionQueryCache {
	capacity := cfg.EngineCacheSize
	if capacity <= 0 {
		// Even with engine caching disabled, session queries need at least
		// one live entry: a pinned engine is the answer's working state, and
		// a bounded cache (not none) is what keeps point sweeps from OOMing.
		capacity = 1
	}
	return &sessionQueryCache{
		ds:    ds,
		cfg:   cfg,
		cache: newLRUBudget[*squeryEntry](capacity, cfg.MaxEngineBytes),
	}
}

// SessionQueryStats is the wire-visible query-memo accounting of one session.
type SessionQueryStats struct {
	// Queries counts points answered against the session's pin state.
	Queries int64 `json:"queries"`
	// Retained aggregates the memo counters: how many answers came from the
	// memo verbatim, from a windowed delta replay, or from a full sweep, and
	// the boundary-candidate scans performed versus avoided.
	Retained core.RetainedStats `json:"retained"`
	// Sweep aggregates the span-parallel sweep counters of the session's
	// rescans.
	Sweep core.SweepStats `json:"sweep"`
}

func (q *sessionQueryCache) statsSnapshot() SessionQueryStats {
	return SessionQueryStats{
		Queries: q.queries.Load(),
		Retained: core.RetainedStats{
			FullScans:         q.fullScans.Load(),
			MemoHits:          q.memoHits.Load(),
			DeltaScans:        q.deltaScans.Load(),
			CandidatesScanned: q.scanned.Load(),
			CandidatesAvoided: q.avoided.Load(),
		},
		Sweep: core.SweepStats{
			ParallelSweeps: q.sweepPar.Load(),
			Spans:          q.sweepSpans.Load(),
			Steals:         q.sweepSteals.Load(),
		},
	}
}

// entry returns (creating if needed) the cache entry for (pt, k). Eviction
// runs the engine pool's policy through the shared lruBudget accounting.
func (q *sessionQueryCache) entry(pt []float64, k int) *squeryEntry {
	key := strconv.Itoa(k) + "|" + pointKey(pt)
	q.mu.Lock()
	defer q.mu.Unlock()
	if ent, ok := q.cache.get(key); ok {
		return ent
	}
	ent := &squeryEntry{key: key, k: k, pt: pt}
	q.cache.put(key, ent, 0)
	return ent
}

// reaccount refreshes an entry's byte estimate after a query grew its
// retained state, re-applying the byte budget.
func (q *sessionQueryCache) reaccount(ent *squeryEntry, newBytes int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cache.reaccount(ent.key, newBytes)
}

// queryPoint answers one point under the pins of hist (the session's
// executed steps): the cached engine is caught up on any steps it has not
// seen, then the retained memo answers — O(1) when nothing relevant changed.
// sweepWorkers > 1 runs any full rescan span-parallel (bit-identical).
func (q *sessionQueryCache) queryPoint(ent *squeryEntry, hist []CleanStep, useMC bool, sweepWorkers int) (PointResult, error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.engine == nil {
		ent.engine = core.NewEngine(q.ds.data, q.ds.kernel, ent.pt)
		rt, err := core.NewRetained(ent.engine, ent.k, useMC, q.ds.pool(ent.k, q.cfg).scratchesFor(ent.engine))
		if err != nil {
			ent.engine = nil
			return PointResult{}, err
		}
		ent.retained = rt
	}
	// Catch the engine up on cleaning steps executed since the last query of
	// this point. Pins only ever accumulate (the history is append-only), so
	// the delta is exactly hist[applied:].
	for ; ent.applied < len(hist); ent.applied++ {
		st := hist[ent.applied]
		ent.engine.SetPin(st.Row, st.Candidate)
	}
	if ent.retained.UseMC() != useMC {
		// Mode flip on a warm entry: answer with a plain sequential sweep
		// rather than thrash the retained accumulator.
		q.queries.Add(1)
		counts, _, err := ent.engine.SweepCounts(ent.k, useMC, core.SweepConfig{}, q.ds.pool(ent.k, q.cfg).scratchesFor(ent.engine))
		if err != nil {
			return PointResult{}, err
		}
		return assemblePointResult(ent.engine, ent.k, counts)
	}
	ent.retained.ConfigureSweep(core.SweepConfig{Workers: sweepWorkers})
	counts := ent.retained.Counts()
	r, err := assemblePointResult(ent.engine, ent.k, append([]float64(nil), counts...))
	q.queries.Add(1)
	s := ent.retained.Stats()
	q.fullScans.Add(s.FullScans - ent.last.FullScans)
	q.memoHits.Add(s.MemoHits - ent.last.MemoHits)
	q.deltaScans.Add(s.DeltaScans - ent.last.DeltaScans)
	q.scanned.Add(s.CandidatesScanned - ent.last.CandidatesScanned)
	q.avoided.Add(s.CandidatesAvoided - ent.last.CandidatesAvoided)
	ent.last = s
	sw := ent.retained.SweepStats()
	q.sweepPar.Add(sw.ParallelSweeps - ent.lastSweep.ParallelSweeps)
	q.sweepSpans.Add(sw.Spans - ent.lastSweep.Spans)
	q.sweepSteals.Add(sw.Steals - ent.lastSweep.Steals)
	ent.lastSweep = sw
	q.reaccount(ent, ent.engine.ApproxBytes()+ent.retained.ApproxBytes())
	return r, err
}

// Query answers a batch CP query against the session's current cleaning
// state: every executed step so far is applied as a pin, exactly as if the
// dataset had been partially cleaned. It is safe to call while a driver is
// stepping the session — each answer reflects a consistent prefix of the
// step history — and repeated batches reuse the per-point retained tree
// state across pins (see sessionQueryCache). Canceling ctx abandons the
// remaining points, as in Server.BatchQuery.
func (sess *Session) Query(ctx context.Context, req BatchRequest) (*BatchResult, error) {
	res := &BatchResult{Results: make([]PointResult, len(req.Points))}
	sum, err := sess.StreamQuery(ctx, req, func(i int, r PointResult) error {
		res.Results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.K, res.CertainFraction = sum.K, sum.CertainFraction
	return res, nil
}

// StreamQuery is Query with the results delivered through yield in request
// order as they complete — the session-side engine of the NDJSON batch mode,
// with the same ordered fan-out and lowest-index error determinism as
// Dataset.StreamBatchQuery.
func (sess *Session) StreamQuery(ctx context.Context, req BatchRequest, yield func(i int, r PointResult) error) (BatchSummary, error) {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return BatchSummary{}, fmt.Errorf("%w: clean session %q", ErrGone, sess.id)
	}
	if sess.queries == nil {
		sess.queries = newSessionQueryCache(sess.ds, sess.server.cfg)
	}
	q := sess.queries
	hist := sess.history[:len(sess.history):len(sess.history)]
	sess.lastUsed = time.Now()
	sess.mu.Unlock()

	k := sess.k
	if req.K != 0 {
		var err error
		if k, err = sess.ds.resolveK(req.K); err != nil {
			return BatchSummary{}, err
		}
	}
	dim := sess.ds.dim()
	for i, t := range req.Points {
		if len(t) != dim {
			return BatchSummary{}, fmt.Errorf("serve: point %d has dim %d, dataset expects %d", i, len(t), dim)
		}
	}
	cfg := sess.server.cfg.withDefaults()
	batchWorkers, sweepWorkers := splitParallelism(cfg, len(req.Points))
	// Session answers are valid for one pin-state prefix: the history is
	// append-only, so its snapshot length is the result-cache generation —
	// a cleaning step bumps it and stale entries are simply never keyed again.
	results := cfg.results
	gen := uint64(len(hist))
	certain := 0
	err := runOrdered(ctx, len(req.Points), batchWorkers, cfg.streams,
		func(i int) (PointResult, error) {
			var key string
			if results != nil {
				key = resultKey(sess.ds.fingerprint, sess.id, k, req.UseMC, gen, req.Points[i])
				if r, ok := results.get(key); ok {
					return r, nil
				}
			}
			ent := q.entry(req.Points[i], k)
			r, err := q.queryPoint(ent, hist, req.UseMC, sweepWorkers)
			if err == nil && results != nil {
				results.put(key, r)
			}
			return r, err
		},
		func(i int, r PointResult) error {
			if r.Certain {
				certain++
			}
			return yield(i, r)
		})
	if err != nil {
		if ctx.Err() != nil {
			return BatchSummary{}, fmt.Errorf("serve: session query abandoned: %w", ctx.Err())
		}
		return BatchSummary{}, err
	}
	sum := BatchSummary{K: k, Points: len(req.Points)}
	if len(req.Points) > 0 {
		sum.CertainFraction = float64(certain) / float64(len(req.Points))
	}
	return sum, nil
}

// QueryStats snapshots the session's query-memo counters (zero when the
// session was never queried).
func (sess *Session) QueryStats() SessionQueryStats {
	sess.mu.Lock()
	q := sess.queries
	sess.mu.Unlock()
	if q == nil {
		return SessionQueryStats{}
	}
	return q.statsSnapshot()
}
