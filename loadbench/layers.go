package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/serve"
)

// poolStats returns the dataset's K pool from a stats snapshot.
func poolStats(st *serve.ServerStats) serve.PoolStats {
	for _, p := range st.Pools[dsName] {
		if p.K == datasetK {
			return p
		}
	}
	return serve.PoolStats{}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer derives the per-layer metrics of the traced pass. Counters come
// from /v1/stats deltas over the measured phases, and only from lifetime
// counters: PoolStats.Plan, PoolStats.Retained and the retained share of
// PoolStats.Sweep sum over the entries cached right now, so an evicted entry
// takes its counts with it. Those layers are read from the probes instead.
// Times are unit costs from the probes; notes say where serve ran a layer
// zero times and where a number is derived (unit cost × serve's count).
func perLayer(out io.Writer, w workload, base *passResult, tp *pass, r *passResult) map[string]metric {
	tr := tp.tr
	b, a := r.before, r.after
	pb, pa := poolStats(b), poolStats(a)
	var rcb, rca serve.ResultCacheStats
	if b.ResultCache != nil && a.ResultCache != nil {
		rcb, rca = *b.ResultCache, *a.ResultCache
	}
	sqb, sqa := b.SessionQueries, a.SessionQueries
	var fsyncs, appended int64
	var fsyncMeanMS float64
	if b.WAL != nil && a.WAL != nil {
		fsyncs = a.WAL.FsyncCount - b.WAL.FsyncCount
		appended = int64(a.WAL.AppendedRecords - b.WAL.AppendedRecords)
		// Over the process lifetime: set-up's registration and session
		// fsyncs keep the mean defined on the read-only workloads.
		fsyncMeanMS = ratio(a.WAL.FsyncTotalMicros, a.WAL.FsyncCount) / 1e3
	}
	sqQueries := sqa.Queries - sqb.Queries
	builds := pa.EngineBuilds - pb.EngineBuilds
	hits := pa.EngineHits - pb.EngineHits
	rcHits, rcMisses := rca.Hits-rcb.Hits, rca.Misses-rcb.Misses

	// Plan tiers come only from engines that follow a pinned path the way
	// serve's do: the session-query retained probes and the selection
	// replay. A fresh probe engine always misses, so counting its plan
	// would measure the probe rate, not cpserve's work.
	var plan core.PlanStats
	for _, e := range tr.retEngines {
		plan.Add(e.PlanStats())
	}
	var replayPlan core.PlanStats
	if r.replay != nil {
		replayPlan = r.replay.planStats()
		plan.Add(replayPlan)
	}
	perSweep := func(v int64) float64 { return ratio(v, tr.sweeps) }

	m := map[string]metric{
		"serve.decode_us":               {tr.timers["serve.decode"].meanMS() * 1e3, "us"},
		"serve.encode_us":               {tr.timers["serve.encode"].meanMS() * 1e3, "us"},
		"serve.batch_query_ms":          {tr.timers["serve.batch_query"].meanMS(), "ms"},
		"stream.reordered":              {float64(a.Streams.Reordered - b.Streams.Reordered), "count"},
		"rescache.hit_ratio":            {ratio(rcHits, rcHits+rcMisses), "fraction"},
		"rescache.evictions":            {float64(rca.Evictions - rcb.Evictions), "count"},
		"pool.engine_hit_ratio":         {ratio(hits, hits+builds), "fraction"},
		"pool.engine_builds":            {float64(builds), "count"},
		"pool.evictions":                {float64(pa.Evictions - pb.Evictions), "count"},
		"pool.engine_mb":                {float64(pa.EngineBytes) / (1 << 20), "MiB"},
		"pool.scratch_allocs":           {float64(pa.ScratchAllocs - pb.ScratchAllocs), "count"},
		"squery.memo_hits":              {float64(sqa.Retained.MemoHits - sqb.Retained.MemoHits), "count"},
		"squery.delta_scans":            {float64(sqa.Retained.DeltaScans - sqb.Retained.DeltaScans), "count"},
		"squery.full_scans":             {float64(sqa.Retained.FullScans - sqb.Retained.FullScans), "count"},
		"squery.scanned_per_point":      {ratio(sqa.Retained.CandidatesScanned-sqb.Retained.CandidatesScanned, sqQueries), "count"},
		"squery.avoided_per_point":      {ratio(sqa.Retained.CandidatesAvoided-sqb.Retained.CandidatesAvoided, sqQueries), "count"},
		"core.instance_ms":              {tr.timers["core.instance"].meanMS(), "ms"},
		"core.engine_ms":                {tr.timers["core.engine"].meanMS(), "ms"},
		"core.scan_ms":                  {tr.timers["core.scan"].meanMS(), "ms"},
		"core.sweep_ms":                 {tr.timers["core.sweep"].meanMS(), "ms"},
		"core.parallel_sweeps":          {perSweep(tr.sweep.ParallelSweeps), "fraction"},
		"core.spans":                    {perSweep(tr.sweep.Spans), "per_sweep"},
		"core.steals":                   {perSweep(tr.sweep.Steals), "per_sweep"},
		"core.plan_hits":                {float64(plan.Hits), "count"},
		"core.plan_partials":            {float64(plan.Partials), "count"},
		"core.plan_misses":              {float64(plan.Misses), "count"},
		"core.retained_ms":              {tr.timers["core.retained"].meanMS(), "ms"},
		"core.mm_ms":                    {tr.timers["core.mm"].meanMS(), "ms"},
		"selection.step_ms":             {tr.timers["selection.step"].meanMS(), "ms"},
		"selection.hypotheses_per_step": {ratio(tr.hyps, tr.steps), "count"},
		"durable.fsyncs":                {float64(fsyncs), "count"},
		"durable.fsync_mean_ms":         {fsyncMeanMS, "ms"},
		"durable.appended_records":      {float64(appended), "count"},
		"loadgen.lag_p99_ms":            {ms(r.lag.quantile(0.99)), "ms"},
		"loadgen.repeat_share":          {r.repeatShare, "fraction"},
		"trace.overhead_ms":             {queryP50(r) - queryP50(base), "ms"},
	}

	fmt.Fprintf(out, "--- per-layer (traced pass; counters are /v1/stats deltas over the measured phases) ---\n")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(out, "tracing overhead: query p50 %.4f ms traced vs %.4f ms untraced\n",
		queryP50(r), queryP50(base))
	fmt.Fprintf(out, "probes: %d core probes, %d steps mirrored, %d codec events dropped\n", tr.sweeps, tr.steps, tr.dropped)
	fmt.Fprintf(out, "derived (unit cost × serve's count): engine build %.1f ms over %d builds; scan %.1f ms at the sweep split\n",
		(tr.timers["core.instance"].meanMS()+tr.timers["core.engine"].meanMS())*float64(builds), builds,
		tr.timers["core.sweep"].meanMS()*float64(builds))
	fmt.Fprintf(out, "plan tiers: %d/%d/%d (hits/partials/misses) from the session-query retained probes and the selection replay, %d/%d/%d of them from the replay\n",
		plan.Hits, plan.Partials, plan.Misses, replayPlan.Hits, replayPlan.Partials, replayPlan.Misses)
	for _, note := range layerNotes(w, builds, sqQueries, fsyncs) {
		fmt.Fprintf(out, "n/a: %s\n", note)
	}
	for _, e := range tr.errs {
		fmt.Fprintf(out, "TRACE ERROR: %s\n", e)
	}
	return m
}

// layerNotes names the layers this workload does not exercise in serve, so
// their numbers are probe unit costs only (or zero counts), not work done.
func layerNotes(w workload, builds, sqQueries, fsyncs int64) []string {
	var notes []string
	if builds == 0 {
		notes = append(notes, "serve built no engines in the measured phases: core.instance/engine/scan/sweep/mm are probe unit costs only")
	}
	if w.stepEvery == 0 {
		notes = append(notes, "no session queries: squery.* are 0 by construction")
		notes = append(notes, fmt.Sprintf("no clean steps under load: step_*, selection.*, core.retained_ms and core.plan_* come from %d steps of a probe session on the idle server after the measured phases (dataset queries pin nothing; a fresh probe engine's plan misses would count probes, not serve's work)", probeStepCount))
	}
	if sqQueries == 0 && w.stepEvery > 0 {
		notes = append(notes, "every session query hit the result cache: squery.* saw no work")
	}
	if fsyncs == 0 {
		notes = append(notes, "no WAL writes in the measured phases: durable.fsyncs/appended_records are 0; durable.fsync_mean_ms covers set-up")
	}
	notes = append(notes, "PoolStats.plan/retained/sweep sum over cached entries only (evictions drop counts): plan tiers come from the retained probes and the selection replay, sweep spans from the probes, never from those deltas")
	return notes
}
