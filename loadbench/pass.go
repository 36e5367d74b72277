package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// workload is one named traffic mix. Its reason to exist, rate and latency
// limit are recorded in BENCHMARK.json's "why".
type workload struct {
	name       string
	rate       float64       // open-loop query arrivals per second
	limit      time.Duration // query latency limit; a failed query counts as over it
	batch      int           // points per query
	stepEvery  time.Duration // clean-step period (0: no session, dataset queries)
	stepLimit  time.Duration // step latency limit
	warmup     int           // warm-up queries before measuring
	probeEvery int           // traced pass: mirror and core probes on every Nth query
}

const reqTimeout = 10 * time.Second

// The open loop is cut into openWindows equal time windows, and the closed
// loop into closedWindows. On a shared machine the hypervisor gives the
// guest's CPUs to other guests for stretches of a second or more (steal),
// and a request that meets such a stretch waits however fast the program is.
// So the query p50 is taken over the quarter of the open-loop windows with
// the least steal: a neighbour's burst then moves which windows count, not
// the figure. The p99 is taken over every sample, and the CPU cost per point
// over the whole open loop (on the session workload a window's CPU time
// depends on how many clean steps fell into it).
const (
	openWindows   = 16
	closedWindows = 5
)

// pass is one measured cpserve lifetime: set-up, warm-up, an open-loop phase
// at the workload's fixed rate and a closed-loop phase.
type pass struct {
	w      workload
	seed   int64
	nproc  int
	d      *benchData
	bin    string
	work   string
	client *http.Client
	ops    *opBook
	out    io.Writer
	tr     *tracer
	p      *proc

	sessMu   sync.Mutex
	sessions []*sessState
	cur      int
	sent     int // steps sent to the current session, in flight included

	recMu        sync.Mutex
	recs         map[string][]queryRec // per phase, a seeded reservoir sample
	recsSeen     map[string]int
	recRNG       *rand.Rand
	seen         map[int]bool
	points       int64 // query points in the measured phases
	repeatPoints int64 // ... that an earlier query of the run already sent

	probeN atomic.Int64
}

type sessState struct {
	id     string
	steps  []serve.CleanStep
	phases []string // phase each step was taken in
}

type queryRec struct {
	phase  string
	ids    []int
	sess   int // -1 for dataset queries
	lo, hi int // acceptable pin generations
	body   []byte
}

type passResult struct {
	setups    []time.Duration
	queryLat  *hist
	stepLat   *hist
	lag       *hist
	windows   []*hist   // open-loop query latency by due-time window
	winSteal  []float64 // machine steal share per open-loop window
	overLimit int
	closedPts []int64 // closed-loop points answered by time window
	closedDur time.Duration
	// cpuTicks is cpserve's CPU time (clock ticks) over the open loop, whose
	// offered work is fixed by the schedule; openPts the points it answered.
	cpuTicks    int64
	openPts     int64
	setupSteal  float64 // machine steal share over the set-ups
	openSteal   float64 // ... and over the open loop
	rssMB       float64
	before      *serve.ServerStats
	after       *serve.ServerStats
	repeatShare float64
	mismatches  int
	replay      *cleanReplay
	lagged      string // why the arrival process was not the workload's
}

func (ps *pass) queryOp() string {
	if ps.w.stepEvery > 0 {
		return opSessionQuery
	}
	return opDatasetQuery
}

// Phase numbers seed the per-request point draws.
const (
	drawWarmup = iota + 1
	drawOpen
	drawClosed
)

// queryIDs returns the point ids of request j of a phase. Cold points are
// numbered consecutively across phases so no point repeats.
func (ps *pass) queryIDs(draw, j, freshBase int) []int {
	ids := make([]int, ps.w.batch)
	for s := range ids {
		switch {
		case ps.w.stepEvery > 0:
			ids[s] = s // the session workload's fixed batch
		case ps.w.batch == 1:
			ids[s] = freshBase + j
		default:
			ids[s] = ps.d.hotPoint(uniform(ps.seed, draw, j, s))
		}
	}
	return ids
}

func (ps *pass) createSession(p *proc, phase string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	status, body, err := post(ctx, ps.client, p.base+"/v1/datasets/"+dsName+"/clean", ps.d.cleanBody)
	ok := err == nil && status == http.StatusCreated
	var st struct {
		ID string `json:"id"`
	}
	if ok {
		ok = json.Unmarshal(body, &st) == nil && st.ID != ""
	}
	ps.ops.add(opSessionCreate, phase, ok)
	if !ok {
		return "", fmt.Errorf("creating a clean session: status %d, err %v: %s", status, err, body)
	}
	return st.ID, nil
}

// setup starts cpserve and registers the dataset (plus, on the session
// workload, creates the clean session), returning the elapsed time from exec.
func (ps *pass) setup(n int) (*proc, string, time.Duration, error) {
	t0 := time.Now()
	p, err := startServer(ps.bin, ps.work, ps.nproc, n)
	if err != nil {
		return nil, "", 0, err
	}
	fail := func(err error) (*proc, string, time.Duration, error) {
		p.stop()
		return nil, "", 0, err
	}
	if err := p.waitReady(ps.client, 60*time.Second); err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	status, body, err := post(ctx, ps.client, p.base+"/v1/datasets", ps.d.registerBody)
	cancel()
	ok := err == nil && status == http.StatusCreated
	ps.ops.add(opRegister, phaseSetup, ok)
	if !ok {
		return fail(fmt.Errorf("registering: status %d, err %v: %s", status, err, body))
	}
	id := ""
	if ps.w.stepEvery > 0 {
		if id, err = ps.createSession(p, phaseSetup); err != nil {
			return fail(err)
		}
	}
	return p, id, time.Since(t0), nil
}

// sendQuery issues one query and records it for the answer check.
func (ps *pass) sendQuery(phase string, ids []int, body []byte) bool {
	url := ps.p.base + "/v1/datasets/" + dsName + "/query"
	sess, lo := -1, 0
	if ps.w.stepEvery > 0 {
		ps.sessMu.Lock()
		sess = ps.cur
		url = ps.p.base + "/v1/clean/" + ps.sessions[sess].id + "/query"
		lo = len(ps.sessions[sess].steps)
		ps.sessMu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	status, resp, err := post(ctx, ps.client, url, body)
	cancel()
	hi := lo
	if sess >= 0 {
		ps.sessMu.Lock()
		hi = len(ps.sessions[sess].steps)
		if sess == ps.cur {
			hi = ps.sent
		}
		ps.sessMu.Unlock()
	}
	ok := err == nil && status == http.StatusOK
	ps.ops.add(ps.queryOp(), phase, ok)
	ps.recMu.Lock()
	if ok {
		ps.keep(queryRec{phase: phase, ids: ids, sess: sess, lo: lo, hi: hi, body: resp})
	}
	if phase != phaseWarmup {
		for _, id := range ids {
			ps.points++
			if ps.seen[id] {
				ps.repeatPoints++
			}
		}
	}
	for _, id := range ids {
		ps.seen[id] = true
	}
	ps.recMu.Unlock()
	if ps.tr != nil && ok && phase != phaseWarmup {
		// Core and mirror probes follow the open loop's fixed offered load;
		// the closed loop, whose request count grows with speed, feeds only
		// the cheap codec probe.
		probe := phase == phaseOpen && ps.probeN.Add(1)%int64(ps.w.probeEvery) == 0
		ps.tr.query(body, resp, probe)
	}
	return ok
}

// keepPerPhase bounds the responses kept for the answer check: holding
// every body of a fast closed loop would grow the generator's heap, and its
// garbage collector would compete with cpserve for the same cores.
const keepPerPhase = 2000

// keep adds r to its phase's reservoir sample (recMu held).
func (ps *pass) keep(r queryRec) {
	n := ps.recsSeen[r.phase]
	ps.recsSeen[r.phase] = n + 1
	if n < keepPerPhase {
		ps.recs[r.phase] = append(ps.recs[r.phase], r)
	} else if i := ps.recRNG.Intn(n + 1); i < keepPerPhase {
		ps.recs[r.phase][i] = r
	}
}

// sendStep pulls one clean step; a finished session is replaced.
func (ps *pass) sendStep(phase string) bool {
	ps.sessMu.Lock()
	s := ps.sessions[ps.cur]
	ps.sent = len(s.steps) + 1
	ps.sessMu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	status, body, err := post(ctx, ps.client, ps.p.base+"/v1/clean/"+s.id+"/next?steps=1", nil)
	cancel()
	var out struct {
		Steps []serve.CleanStep `json:"steps"`
		Done  bool              `json:"done"`
	}
	ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &out) == nil
	ps.sessMu.Lock()
	s.steps = append(s.steps, out.Steps...)
	for range out.Steps {
		s.phases = append(s.phases, phase)
	}
	ps.sent = len(s.steps)
	ps.sessMu.Unlock()
	ps.ops.add(opStep, phase, ok)
	if ps.tr != nil {
		for _, st := range out.Steps {
			ps.tr.step(st)
		}
	}
	if ok && out.Done {
		id, err := ps.createSession(ps.p, phase)
		if err != nil {
			return ok
		}
		ps.sessMu.Lock()
		ps.sessions = append(ps.sessions, &sessState{id: id})
		ps.cur, ps.sent = len(ps.sessions)-1, 0
		ps.sessMu.Unlock()
		if ps.tr != nil {
			ps.tr.sessionReplaced()
		}
	}
	return ok
}

// run executes the pass; setups > 1 repeats set-up and keeps the last server.
func (ps *pass) run(seconds int, setups int, traced bool) (*passResult, error) {
	res := &passResult{queryLat: newHist(), stepLat: newHist(), lag: newHist()}
	ps.seen = make(map[int]bool)
	ps.recs, ps.recsSeen = make(map[string][]queryRec), make(map[string]int)
	ps.recRNG = rand.New(rand.NewSource(ps.seed ^ 0x7eed))
	var sessID string
	st0, ss0 := machineTicks()
	for n := 0; n < setups; n++ {
		p, id, dur, err := ps.setup(n)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, dur)
		if n < setups-1 {
			p.stop()
			continue
		}
		ps.p, sessID = p, id
	}
	res.setupSteal = stealSince(st0, ss0)
	defer func() {
		if ps.p != nil {
			ps.p.stop()
		}
	}()
	if ps.w.stepEvery > 0 {
		ps.sessions = []*sessState{{id: sessID}}
	}
	if traced {
		tr, err := newTracer(ps.d, ps.w, ps.nproc)
		if err != nil {
			return nil, err
		}
		ps.tr = tr
		defer func() {
			if ps.tr != nil {
				ps.tr.stop()
			}
		}()
	}

	qWorkers := ps.nproc
	if ps.w.stepEvery > 0 {
		qWorkers = max(ps.nproc-1, 1) // one connection is the step lane's
	}
	// Warm-up (unmeasured): fill the result cache with the hot working set,
	// fill the engine LRU with cold points, or take the session's first step
	// (which builds its engines).
	if err := ps.warmup(qWorkers); err != nil {
		return nil, err
	}
	var err error
	if res.before, err = fetchStats(ps.client, ps.p.base); err != nil {
		return nil, err
	}
	mt0, ms0 := machineTicks()
	cpu0, err := ps.p.cpuTicks()
	if err != nil {
		return nil, err
	}

	// Open loop at the fixed rate.
	total := time.Duration(seconds) * time.Second
	openDur := total * 5 / 6
	rng := rand.New(rand.NewSource(ps.seed))
	due := poissonSchedule(rng, ps.w.rate, openDur)
	ids := make([][]int, len(due))
	bodies := make([][]byte, len(due))
	for i := range due {
		ids[i] = ps.queryIDs(drawOpen, i, ps.w.warmup)
		bodies[i] = ps.d.pointsBody(ids[i])
	}
	qLane := &lane{due: due, workers: qWorkers, send: func(i int) bool {
		return ps.sendQuery(phaseOpen, ids[i], bodies[i])
	}}
	var stepLane *lane
	if ps.w.stepEvery > 0 {
		stepLane = &lane{due: fixedSchedule(ps.w.stepEvery, openDur), workers: 1, send: func(int) bool {
			return ps.sendStep(phaseOpen)
		}}
	}
	start := time.Now().Add(2 * time.Millisecond)
	var stepRes *laneResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.winSteal = windowSteals(start, openDur)
	}()
	if stepLane != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stepRes = stepLane.run(start)
		}()
	}
	qRes := qLane.run(start)
	wg.Wait()
	cpu1, err := ps.p.cpuTicks()
	if err != nil {
		return nil, err
	}
	res.cpuTicks = cpu1 - cpu0
	res.openSteal = stealSince(mt0, ms0)
	res.windows = make([]*hist, openWindows)
	for w := range res.windows {
		res.windows[w] = newHist()
	}
	for i, l := range qRes.latency {
		if qRes.ok[i] {
			res.openPts += int64(ps.w.batch)
		}
		if l > ps.w.limit || !qRes.ok[i] {
			res.overLimit++
			l = max(l, ps.w.limit)
		}
		res.queryLat.record(l)
		res.windows[int(int64(due[i])*openWindows/int64(openDur))].record(l)
	}
	for _, l := range qRes.lag {
		res.lag.record(l)
	}
	if stepRes != nil {
		for i, l := range stepRes.latency {
			if !stepRes.ok[i] {
				l = max(l, ps.w.stepLimit)
			}
			res.stepLat.record(l)
		}
		for _, l := range stepRes.lag {
			res.lag.record(l)
		}
	}

	// Closed loop: nproc connections back to back. On the session workload
	// the step lane pauses, so throughput reads the session-query path at the
	// final pin state rather than the luck of which queries met a step.
	closedDur := total - openDur
	freshBase := ps.w.warmup + len(due)
	res.closedPts = make([]int64, closedWindows)
	var ptsMu sync.Mutex
	t0 := time.Now()
	deadline := t0.Add(closedDur)
	closedLoop(ps.nproc, func(int) bool { return time.Now().Before(deadline) }, func(j int) {
		ids := ps.queryIDs(drawClosed, j, freshBase)
		if ps.sendQuery(phaseClosed, ids, ps.d.pointsBody(ids)) {
			if w := int(int64(time.Since(t0)) * closedWindows / int64(closedDur)); w < closedWindows {
				ptsMu.Lock()
				res.closedPts[w] += int64(len(ids))
				ptsMu.Unlock()
			}
		}
	})
	res.closedDur = closedDur

	if res.after, err = fetchStats(ps.client, ps.p.base); err != nil {
		return nil, err
	}
	if res.rssMB, err = ps.p.peakRSSMB(); err != nil {
		return nil, err
	}
	if ps.w.stepEvery == 0 {
		ps.probeSteps(res)
	}
	if ps.tr != nil {
		ps.tr.stop()
	}
	ps.p.stop()
	ps.p = nil
	if ps.points > 0 {
		res.repeatShare = float64(ps.repeatPoints) / float64(ps.points)
	}
	// The generator fell behind its schedule when its own wake-ups ran a
	// whole latency limit late: the arrival process was then not the one
	// the workload specifies.
	if lag := res.lag.quantile(0.99); lag > ps.w.limit {
		res.lagged = fmt.Sprintf("load generator lag p99 %v exceeds the %v limit", lag, ps.w.limit)
	}
	return res, ps.check(res)
}

// windowSteals returns the machine's steal share over each open-loop
// window, sleeping to each window's end.
func windowSteals(start time.Time, openDur time.Duration) []float64 {
	steal := make([]float64, openWindows)
	time.Sleep(time.Until(start))
	t0, s0 := machineTicks()
	for k := range steal {
		time.Sleep(time.Until(start.Add(openDur * time.Duration(k+1) / openWindows)))
		t1, s1 := machineTicks()
		steal[k] = ratio(s1-s0, t1-t0)
		t0, s0 = t1, s1
	}
	return steal
}

// quietWindows returns, in time order, the quarter of the open-loop windows
// in which the machine's steal share was lowest.
func (r *passResult) quietWindows() []int {
	idx := make([]int, len(r.windows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.winSteal[idx[a]] < r.winSteal[idx[b]] })
	idx = idx[:max(1, len(idx)/4)]
	sort.Ints(idx)
	return idx
}

// probeStepCount is the number of clean steps taken on the dataset
// workloads after their measured phases.
const probeStepCount = 3

// probeSteps gives the dataset workloads, which take no clean steps under
// load, defined step and selection figures: a fresh session on the idle
// server takes a few steps, timed from send, after the stats snapshot and
// the RSS reading, and checked like the session workload's steps.
func (ps *pass) probeSteps(res *passResult) {
	id, err := ps.createSession(ps.p, phaseProbe)
	if err != nil {
		return
	}
	ps.sessions, ps.cur, ps.sent = []*sessState{{id: id}}, 0, 0
	for range probeStepCount {
		t0 := time.Now()
		ok := ps.sendStep(phaseProbe)
		l := time.Since(t0)
		if !ok {
			l = max(l, ps.w.stepLimit)
		}
		res.stepLat.record(l)
	}
}

func (ps *pass) warmup(workers int) error {
	switch {
	case ps.w.stepEvery > 0:
		if !ps.sendStep(phaseWarmup) {
			return fmt.Errorf("warm-up step failed")
		}
		ids := ps.queryIDs(drawWarmup, 0, 0)
		ps.sendQuery(phaseWarmup, ids, ps.d.pointsBody(ids))
	case ps.w.batch == 1:
		closedLoop(workers, func(j int) bool { return j < ps.w.warmup }, func(j int) {
			ids := ps.queryIDs(drawWarmup, j, 0)
			ps.sendQuery(phaseWarmup, ids, ps.d.pointsBody(ids))
		})
	default:
		// Every working-set point once, then the sequence's own draws.
		for lo := 0; lo < hotSet; lo += ps.w.batch {
			var ids []int
			for id := lo; id < min(lo+ps.w.batch, hotSet); id++ {
				ids = append(ids, id)
			}
			ps.sendQuery(phaseWarmup, ids, ps.d.pointsBody(ids))
			if ps.tr != nil {
				ps.tr.warm(ids)
			}
		}
	}
	return nil
}

// check verifies served answers outside the timed window: every clean step
// against the in-process replay, and the recorded query responses against
// fresh-engine references (the whole reservoir where references repeat, a
// seeded sample of it otherwise).
func (ps *pass) check(res *passResult) error {
	var pins [][2]int
	if len(ps.sessions) > 0 {
		longest := 0
		for _, s := range ps.sessions {
			longest = max(longest, len(s.steps))
		}
		replay, err := newCleanReplay(ps.d, ps.nproc)
		if err != nil {
			return err
		}
		for i := 0; i < longest; i++ {
			p, err := replay.step()
			if err != nil {
				return err
			}
			pins = append(pins, p)
		}
		res.replay = replay
		for _, s := range ps.sessions {
			for i, st := range s.steps {
				if st.Row != pins[i][0] || st.Candidate != pins[i][1] {
					res.mismatches++
					ps.ops.mismatch(opStep, s.phases[i])
					fmt.Fprintf(ps.out, "MISMATCH step %d: cpserve cleaned row %d → candidate %d, reference row %d → candidate %d\n",
						i+1, st.Row, st.Candidate, pins[i][0], pins[i][1])
				}
			}
		}
	}
	ck := newChecker(ps.d, pins)
	rng := rand.New(rand.NewSource(ps.seed ^ 0x5eed))
	for _, phase := range []string{phaseWarmup, phaseOpen, phaseClosed} {
		for _, r := range ps.sample(rng, ps.recs[phase]) {
			if err := ck.checkBody(r.body, r.ids, r.lo, r.hi); err != nil {
				res.mismatches++
				ps.ops.mismatch(ps.queryOp(), phase)
				if res.mismatches <= 5 {
					fmt.Fprintf(ps.out, "MISMATCH %s %s query (points %v): %v\n", phase, ps.queryOp(), r.ids, err)
				}
			}
		}
	}
	return nil
}

// sample picks the responses to check: all when answers repeat (hot
// working set), otherwise a seeded sample — up to 120 cold points per phase,
// or every query at up to 6 seeded pin generations per phase.
func (ps *pass) sample(rng *rand.Rand, recs []queryRec) []queryRec {
	switch {
	case ps.w.stepEvery > 0:
		gens := map[int]bool{}
		for _, r := range recs {
			gens[r.lo] = true
		}
		var list []int
		for g := range gens {
			list = append(list, g)
		}
		sort.Ints(list)
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		keep := map[int]bool{}
		for _, g := range list[:min(6, len(list))] {
			keep[g] = true
		}
		var out []queryRec
		for _, r := range recs {
			if keep[r.lo] {
				out = append(out, r)
			}
		}
		return out
	case ps.w.batch == 1:
		idx := rng.Perm(len(recs))
		var out []queryRec
		for _, i := range idx[:min(120, len(idx))] {
			out = append(out, recs[i])
		}
		return out
	default:
		return recs
	}
}
