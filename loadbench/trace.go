package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// tracer is the traced pass's per-layer instrumentation, all of it outside
// cpserve: beside each request it times the public function of each layer on
// the same inputs — encoding/json on the wire bodies, an in-process
// serve.Server given the same configuration, dataset and session for
// Server.BatchQuery / Session.Query / Session.Next, and fresh core engines
// for InstanceFor, NewEngineFromInstance, Counts, SweepCounts and CheckMM. A
// single goroutine runs the probes in request order, so they compete for the
// CPU like a co-located tracer would; the difference between the traced and
// untraced query latency is reported as the tracing overhead.
type tracer struct {
	d      *benchData
	nproc  int
	events chan traceEvent
	done   chan struct{}
	once   sync.Once

	mirror         *serve.Server
	mirrorSess     *serve.Session
	sessionQueries bool // queries go to the session, not the dataset
	scratches      *core.ScratchPool

	// Retained probes for the clean workload's fixed batch: pinned engines
	// refreshed after every step, as the session query cache does.
	retEngines []*core.Engine
	retained   []*core.Retained

	mu      sync.Mutex // guards everything below
	timers  map[string]*meanTimer
	sweep   core.SweepStats
	sweeps  int64
	hyps    int64
	steps   int64
	dropped int64
	errs    []string
}

type traceEvent struct {
	reqBody, respBody []byte
	probe             bool
	step              *serve.CleanStep
	newSession        bool
}

// meanTimer accumulates a layer's busy time per call.
type meanTimer struct {
	total time.Duration
	n     int64
}

func (m *meanTimer) meanMS() float64 {
	if m == nil || m.n == 0 {
		return 0
	}
	return float64(m.total) / float64(m.n) / 1e6
}

func newTracer(d *benchData, w workload, nproc int) (*tracer, error) {
	t := &tracer{
		d: d, nproc: nproc,
		// Holds a whole open loop's events at the configured rates; the
		// closed loop can outrun the probes, and its query events beyond
		// the buffer are dropped and counted. Steps are never dropped.
		events: make(chan traceEvent, 8192),
		done:   make(chan struct{}),
		timers: make(map[string]*meanTimer),
	}
	t.mirror = serve.NewServer(serve.Config{
		Parallelism: nproc, SweepWorkers: nproc, ResultCacheBytes: 64 << 20,
	})
	if _, err := t.mirror.Register(dsName, d.ds, d.kernel, d.k); err != nil {
		return nil, fmt.Errorf("mirror registration: %w", err)
	}
	tmpl := core.NewEngine(d.ds, d.kernel, d.test[0])
	var err error
	if t.scratches, err = core.NewScratchPool(tmpl, d.k); err != nil {
		return nil, err
	}
	// Every workload gets the mirror session and the retained probes: the
	// dataset workloads step a probe session after their measured phases.
	t.sessionQueries = w.stepEvery > 0
	if err := t.startSession(); err != nil {
		return nil, err
	}
	_, sweepWorkers := splitParallelism(nproc, nproc, w.batch)
	for id := 0; id < w.batch; id++ {
		e := core.NewEngine(d.ds, d.kernel, d.point(id))
		rt, err := core.NewRetained(e, d.k, false, t.scratches)
		if err != nil {
			return nil, err
		}
		rt.ConfigureSweep(core.SweepConfig{Workers: sweepWorkers})
		rt.Counts()
		t.retEngines = append(t.retEngines, e)
		t.retained = append(t.retained, rt)
	}
	go t.loop()
	return t, nil
}

func (t *tracer) startSession() error {
	sess, err := t.mirror.StartCleanSession(dsName, serve.CleanRequest{Truth: t.d.truth, ValPoints: t.d.val})
	if err != nil {
		return fmt.Errorf("mirror session: %w", err)
	}
	t.mirrorSess = sess
	return nil
}

// splitParallelism is serve's budget split between batch fan-out and
// span-parallel sweep workers, for probing at the worker count serve uses.
func splitParallelism(parallelism, sweepWorkers, points int) (batch, sweep int) {
	batch = min(parallelism, points)
	batch = max(batch, 1)
	sweep = sweepWorkers
	if sweep > 1 {
		sweep = min(sweep, parallelism/batch)
	}
	return batch, max(sweep, 1)
}

// warm feeds warm-up batches to the mirror untimed, so its caches hold what
// cpserve's hold when measurement starts.
func (t *tracer) warm(ids []int) {
	_, _ = t.mirror.BatchQuery(context.Background(), dsName, serve.BatchRequest{Points: t.points(ids)})
}

func (t *tracer) points(ids []int) [][]float64 {
	pts := make([][]float64, len(ids))
	for i, id := range ids {
		pts[i] = t.d.point(id)
	}
	return pts
}

// query enqueues a completed query; it never blocks the load generator.
func (t *tracer) query(req, resp []byte, probe bool) {
	select {
	case t.events <- traceEvent{reqBody: req, respBody: resp, probe: probe}:
	default:
		t.mu.Lock()
		t.dropped++
		t.mu.Unlock()
	}
}

// step enqueues an executed clean step (never dropped).
func (t *tracer) step(st serve.CleanStep) {
	t.events <- traceEvent{step: &st}
}

// sessionReplaced restarts the mirror session when cpserve's finished.
func (t *tracer) sessionReplaced() { t.events <- traceEvent{newSession: true} }

// stop drains the queue and waits for the probe goroutine.
func (t *tracer) stop() {
	t.once.Do(func() {
		close(t.events)
		<-t.done
		t.mirror.Close()
	})
}

func (t *tracer) timed(name string, f func()) {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.mu.Lock()
	m := t.timers[name]
	if m == nil {
		m = &meanTimer{}
		t.timers[name] = m
	}
	m.total += d
	m.n++
	t.mu.Unlock()
}

func (t *tracer) fail(format string, args ...interface{}) {
	t.mu.Lock()
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

func (t *tracer) loop() {
	defer close(t.done)
	for ev := range t.events {
		switch {
		case ev.newSession:
			if err := t.startSession(); err != nil {
				t.fail("%v", err)
			}
			for _, e := range t.retEngines {
				e.ResetPins()
			}
		case ev.step != nil:
			t.onStep(*ev.step)
		default:
			t.onQuery(ev)
		}
	}
}

func (t *tracer) onQuery(ev traceEvent) {
	// HTTP codec: the wire bodies through encoding/json, request into the
	// handler's strict decode shape, response out of a BatchResult.
	var req struct {
		Points [][]float64 `json:"points"`
		K      int         `json:"k"`
		UseMC  bool        `json:"use_mc"`
	}
	var decErr error
	t.timed("serve.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(ev.reqBody))
		dec.DisallowUnknownFields()
		decErr = dec.Decode(&req)
	})
	var res serve.BatchResult
	if err := json.Unmarshal(ev.respBody, &res); err != nil || decErr != nil {
		t.fail("codec probe: %v / %v", decErr, err)
		return
	}
	var buf bytes.Buffer
	t.timed("serve.encode", func() { _ = json.NewEncoder(&buf).Encode(&res) })
	if !ev.probe {
		return
	}
	breq := serve.BatchRequest{Points: req.Points}
	t.timed("serve.batch_query", func() {
		var err error
		if t.sessionQueries {
			_, err = t.mirrorSess.Query(context.Background(), breq)
		} else {
			_, err = t.mirror.BatchQuery(context.Background(), dsName, breq)
		}
		if err != nil {
			t.fail("mirror query: %v", err)
		}
	})
	t.probeCore(req.Points[0], len(req.Points))
}

// probeCore times each core layer on a fresh engine for pt, at the sweep
// worker count serve gives a batch of this size.
func (t *tracer) probeCore(pt []float64, batch int) {
	var inst *core.Instance
	t.timed("core.instance", func() { inst = core.InstanceFor(t.d.ds, t.d.kernel, pt) })
	var e *core.Engine
	t.timed("core.engine", func() { e = core.NewEngineFromInstance(inst) })
	sc := t.scratches.Get()
	t.timed("core.scan", func() { e.Counts(sc, -1, -1) })
	t.scratches.Put(sc)
	_, sweepWorkers := splitParallelism(t.nproc, t.nproc, batch)
	var st core.SweepStats
	t.timed("core.sweep", func() {
		var err error
		if _, st, err = e.SweepCounts(t.d.k, false, core.SweepConfig{Workers: sweepWorkers}, t.scratches); err != nil {
			t.fail("sweep probe: %v", err)
		}
	})
	t.timed("core.mm", func() {
		if _, err := e.CheckMM(t.d.k, -1, -1); err != nil {
			t.fail("mm probe: %v", err)
		}
	})
	t.mu.Lock()
	t.sweep.Add(st)
	t.sweeps++
	t.mu.Unlock()
}

func (t *tracer) onStep(st serve.CleanStep) {
	if t.mirrorSess != nil {
		var steps []serve.CleanStep
		t.timed("selection.step", func() {
			var err error
			if steps, _, err = t.mirrorSess.Next(1); err != nil {
				t.fail("mirror step: %v", err)
			}
		})
		if len(steps) != 1 || steps[0].Row != st.Row || steps[0].Candidate != st.Candidate {
			t.fail("mirror step %d differs from cpserve's (row %d, candidate %d)", st.Step, st.Row, st.Candidate)
		}
	}
	t.mu.Lock()
	t.hyps += st.ExaminedHypotheses
	t.steps++
	t.mu.Unlock()
	for i, e := range t.retEngines {
		e.SetPin(st.Row, st.Candidate)
		t.timed("core.retained", func() { t.retained[i].Counts() })
	}
}
