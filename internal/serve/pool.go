package serve

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// enginePool owns the per-(dataset, K) serving state: a Scratch free list
// (shape identical across every engine of the dataset) and an LRU of
// constructed engines keyed by test point, budgeted both by entry count and
// by approximate bytes through the shared lruBudget accounting. Cached
// engines carry no pins and are therefore safe for concurrent queries from
// many goroutines, each with its own Scratch. The pool holds no answers: the
// server-wide result cache is the only answer cache on the dataset path.
type enginePool struct {
	ds       *Dataset
	k        int
	capacity int

	mu        sync.Mutex
	cache     *lruBudget[*core.Engine] // guarded by mu
	scratches *core.ScratchPool        // created on first use; guarded by mu

	builds atomic.Int64 // engines constructed
	hits   atomic.Int64 // cache hits

	// Lifetime span-parallel sweep counters.
	sweepPar    atomic.Int64
	sweepSpans  atomic.Int64
	sweepSteals atomic.Int64
}

// pool returns (creating if needed) the engine pool for K.
func (d *Dataset) pool(k int, cfg Config) *enginePool {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pools[k]
	if !ok {
		p = &enginePool{
			ds:       d,
			k:        k,
			capacity: cfg.EngineCacheSize,
			cache:    newLRUBudget[*core.Engine](cfg.EngineCacheSize, cfg.MaxEngineBytes),
		}
		d.pools[k] = p
	}
	return p
}

// pointKey encodes a test point as a cache key (exact bit pattern; NaNs and
// signed zeros hash as distinct, which only costs a cache miss).
func pointKey(t []float64) string {
	var b strings.Builder
	writePoint(&b, t)
	return b.String()
}

// writePoint appends t's exact bit pattern to b. Building a key in one
// Builder costs a single allocation, which the result-cache hit path feels.
func writePoint(b *strings.Builder, t []float64) {
	b.Grow(8 * len(t))
	var w [8]byte
	for _, v := range t {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		b.Write(w[:])
	}
}

// engine returns a query engine for test point t, from cache when possible,
// together with its cache key ("" when caching is disabled — the engine is
// then private to the caller). The returned engine may be shared with other
// goroutines; callers must not pin it.
func (p *enginePool) engine(t []float64) (*core.Engine, string) {
	if p.capacity <= 0 {
		e := core.NewEngine(p.ds.data, p.ds.kernel, t)
		p.builds.Add(1)
		return e, ""
	}
	key := pointKey(t)
	p.mu.Lock()
	if e, ok := p.cache.get(key); ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return e, key
	}
	p.mu.Unlock()
	// Construction is the expensive part (similarities, then the radix sort
	// of the candidates into scan order); keep it outside the lock. A concurrent miss on the same key builds a
	// duplicate and the first insert wins — wasted work, not a bug.
	e := core.NewEngine(p.ds.data, p.ds.kernel, t)
	p.builds.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cache.put(key, e, e.ApproxBytes()), key
}

// query answers one point with a fresh SS-DC sweep on the point's pooled
// engine. sweepWorkers > 1 runs it span-parallel when the engine is large
// enough (bit-identical either way); it is the caller's already-budgeted
// share of Config.Parallelism.
func (p *enginePool) query(t []float64, useMC bool, sweepWorkers int) (PointResult, error) {
	e, key := p.engine(t)
	counts, stats, err := e.SweepCounts(p.k, useMC, core.SweepConfig{Workers: sweepWorkers}, p.scratchesFor(e))
	if err != nil {
		return PointResult{}, err
	}
	if stats.ParallelSweeps > 0 {
		p.sweepPar.Add(stats.ParallelSweeps)
		p.sweepSpans.Add(stats.Spans)
		p.sweepSteals.Add(stats.Steals)
		if key != "" {
			// The sweep may have cached a span plan on the engine: charge
			// its snapshot bytes to the byte budget.
			bytes := e.ApproxBytes()
			p.mu.Lock()
			p.cache.reaccount(key, bytes)
			p.mu.Unlock()
		}
	}
	return assemblePointResult(e, p.k, counts)
}

// scratchesFor returns the shared Scratch free list, creating it on first
// use from template (any engine of the dataset has the right shape; the
// pool captures only the shape, never the engine).
func (p *enginePool) scratchesFor(template *core.Engine) *core.ScratchPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.scratches == nil {
		sp, err := core.NewScratchPool(template, p.k)
		if err != nil {
			// K was validated by resolveK before any pool use.
			panic(err)
		}
		p.scratches = sp
	}
	return p.scratches
}

// PoolStats reports one (K, pool) pair's serving counters.
type PoolStats struct {
	K             int   `json:"k"`
	EngineBuilds  int64 `json:"engine_builds"`
	EngineHits    int64 `json:"engine_hits"`
	EnginesCached int   `json:"engines_cached"`
	// EngineBytes is the approximate heap held by cached engines, their
	// cached sweep plans included; Evictions counts engines dropped by the
	// entry or byte budget.
	EngineBytes int64 `json:"engine_bytes"`
	Evictions   int64 `json:"evictions"`
	// Sweep counts the pool's span-parallel sweeps over its lifetime.
	Sweep         core.SweepStats `json:"sweep"`
	ScratchGets   int64           `json:"scratch_gets"`
	ScratchAllocs int64           `json:"scratch_allocs"`
}

// Stats snapshots every pool of the dataset, ordered by K.
func (d *Dataset) Stats() []PoolStats {
	d.mu.Lock()
	pools := make([]*enginePool, 0, len(d.pools))
	for _, p := range d.pools {
		pools = append(pools, p)
	}
	d.mu.Unlock()
	out := make([]PoolStats, 0, len(pools))
	for _, p := range pools {
		st := PoolStats{
			K:            p.k,
			EngineBuilds: p.builds.Load(),
			EngineHits:   p.hits.Load(),
			Sweep: core.SweepStats{
				ParallelSweeps: p.sweepPar.Load(),
				Spans:          p.sweepSpans.Load(),
				Steals:         p.sweepSteals.Load(),
			},
		}
		p.mu.Lock()
		st.EnginesCached = p.cache.len()
		st.EngineBytes = p.cache.bytes
		st.Evictions = p.cache.evictions
		scratches := p.scratches
		p.mu.Unlock()
		if scratches != nil {
			st.ScratchGets, st.ScratchAllocs = scratches.Stats()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}
