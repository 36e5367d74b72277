// Command loadbench is the repository's end-to-end benchmark: it starts a
// real cpserve built from the same tree, drives it over loopback with
// open-loop Poisson arrivals and then a closed loop, checks every sampled
// answer against the exact core reference, and prints the metrics named in
// BENCHMARK.json. Run it through run.sh, which builds both binaries:
//
//	bash loadbench/run.sh --workload cold-points --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same seeded
// sequence twice, untraced then traced, and prints the per-layer metrics plus
// the tracing overhead. The last line of standard output is the JSON result.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

var workloads = []workload{
	{name: "hot-repeat", rate: 500, limit: 25 * time.Millisecond, batch: 16, warmup: 0,
		stepLimit: 2 * time.Second, probeEvery: 8},
	{name: "cold-points", rate: 70, limit: 100 * time.Millisecond, batch: 1, warmup: 300,
		stepLimit: 2 * time.Second, probeEvery: 4},
	{name: "clean-while-query", rate: 210, limit: 100 * time.Millisecond, batch: 16,
		stepEvery: 400 * time.Millisecond, stepLimit: 2 * time.Second, probeEvery: 8},
}

func main() {
	name := flag.String("workload", "", "workload name (hot-repeat, cold-points, clean-while-query)")
	seed := flag.Int64("seed", 1, "workload seed: data and request sequence")
	seconds := flag.Int("seconds", 20, "measured seconds per pass (5/6 open loop, 1/6 closed loop)")
	trace := flag.Int("trace", 0, "1: also run a traced pass and print per-layer metrics")
	bin := flag.String("cpserve", "", "cpserve binary")
	work := flag.String("workdir", "", "scratch directory for data directories and logs")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, bin, work string) error {
	var w workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w.name == "" {
		return fmt.Errorf("unknown workload %q", name)
	}
	if bin == "" || work == "" {
		return fmt.Errorf("-cpserve and -workdir are required (run through run.sh)")
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds must be at least 2")
	}
	work = filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// A signal, or a run past its time budget (a wedged server or probe),
	// stops every cpserve the run started, removes its scratch directory
	// and fails the run without printing a result.
	abort := func(why string) {
		killAll()
		os.RemoveAll(work)
		fmt.Fprintf(os.Stderr, "loadbench: %s: stopped\n", why)
		os.Exit(1)
	}
	// A reader of the output that went away must not kill the run by
	// SIGPIPE before it has stopped its cpserve processes.
	signal.Ignore(syscall.SIGPIPE)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	stopped := make(chan struct{})
	defer close(stopped)
	go func() {
		select {
		case s := <-sigs:
			abort(s.String())
		case <-stopped:
		}
	}()
	budget := watchdogAfter(seconds)
	watchdog := time.AfterFunc(budget, func() { abort("run exceeded its time budget") })
	defer watchdog.Stop()

	nproc := runtime.NumCPU()
	t0 := time.Now()
	d, err := buildData(seed)
	if err != nil {
		return err
	}
	out := os.Stdout
	fmt.Fprintf(out, "loadbench %s seed=%d seconds=%d nproc=%d: %d rows (%d dirty, %d candidates), %d val, %d test points; data built in %.2fs\n",
		w.name, seed, seconds, nproc, d.ds.N(), len(d.ds.UncertainRows()), d.ds.TotalCandidates(), len(d.val), len(d.test), time.Since(t0).Seconds())

	fmt.Fprintf(out, "machine speed: sha256 of 32 MiB in %.2f ms (median of 5; printed only: it tells a slower machine from a slower program across runs)\n", calibrate())

	newPass := func() *pass {
		return &pass{w: w, seed: seed, nproc: nproc, d: d, bin: bin, work: work,
			client: newClient(nproc), ops: newOpBook(), out: out}
	}
	setups := 15
	if traced {
		setups = 1
	}
	// correct says only whether cpserve's answers matched the reference.
	// Timing disturbances (hypervisor steal, a generator that fell behind
	// its schedule) are printed with the pass, not folded into it.
	base := newPass()
	baseRes, err := base.run(seconds, setups, false)
	if err != nil {
		return err
	}
	e2e := endToEnd(base, baseRes)
	printPass(out, "untraced", w, base, baseRes, e2e)
	attempted, failed := base.ops.totals()
	correct := baseRes.mismatches == 0
	metrics := pick(e2e, gated)
	if traced {
		tp := newPass()
		tRes, err := tp.run(seconds, 1, true)
		if err != nil {
			return err
		}
		printPass(out, "traced", w, tp, tRes, endToEnd(tp, tRes))
		metrics = perLayer(out, w, baseRes, tp, tRes)
		for _, n := range []string{"query_p99_ms", "points_per_s", "step_p50_ms", "step_p99_ms", "failed_frac"} {
			metrics[n] = e2e[n]
		}
		a, f := tp.ops.totals()
		attempted, failed = attempted+a, failed+f
		correct = correct && tRes.mismatches == 0 && len(tp.tr.errs) == 0
	}
	return printResult(out, correct, attempted, failed, metrics)
}

// watchdogAfter budgets a run inside the 180 s it may take: each pass
// measures for seconds and spends about as long again on set-up, warm-up and
// the answer check, and a traced run makes two passes.
func watchdogAfter(seconds int) time.Duration {
	return time.Duration(2*(2*seconds+30)) * time.Second
}

// calibrate times a fixed CPU-bound loop that shares no code with the
// program under test, so a reader can tell a slower machine from a slower
// program when comparing runs taken at different times.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	v := make([]float64, 5)
	for r := range v {
		t0 := time.Now()
		for i := 0; i < 32; i++ {
			sum := sha256.Sum256(buf)
			buf[i] = sum[0]
		}
		v[r] = ms(time.Since(t0))
	}
	return medianF(v)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// queryP50 is the median over the quiet open-loop windows of each window's
// query p50.
func queryP50(r *passResult) float64 {
	var v []float64
	for _, i := range r.quietWindows() {
		v = append(v, ms(r.windows[i].quantile(0.5)))
	}
	return medianF(v)
}

// closedRate is the median over closed-loop windows of points per second.
func closedRate(r *passResult) float64 {
	v := make([]float64, len(r.closedPts))
	per := r.closedDur.Seconds() / float64(len(r.closedPts))
	for i, n := range r.closedPts {
		v[i] = float64(n) / per
	}
	return medianF(v)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuPerPoint is cpserve's CPU time per point answered in the open loop,
// clean steps included on the session workload.
func cpuPerPoint(r *passResult) float64 {
	return float64(r.cpuTicks) * 1e6 / clockTicks / float64(max(r.openPts, 1))
}

func medianSetup(setups []time.Duration) float64 {
	v := make([]float64, len(setups))
	for i, d := range setups {
		v[i] = d.Seconds()
	}
	return medianF(v)
}

func medianF(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// gated names the end-to-end metrics BENCHMARK.json bounds — the figures
// that held within their bounds over ten seeded runs on a shared two-vCPU
// machine. Tail latency and closed-loop throughput are printed by every run
// and reported with the per-layer metrics, but not gated: the p99 of a
// sub-millisecond query tracks the hypervisor's steal, and a loopback closed
// loop tracks the neighbours' load on the CPUs (ten-seed spreads of 1.0–2.7×
// and 0.26–0.30 of their medians).
var gated = []string{"setup_s", "query_p50_ms", "cpu_us_per_point", "peak_rss_mb"}

// endToEnd computes every user-visible figure of one pass.
func endToEnd(ps *pass, r *passResult) map[string]metric {
	attempted, failed := ps.ops.totals()
	return map[string]metric{
		"setup_s":          {medianSetup(r.setups), "s"},
		"query_p50_ms":     {queryP50(r), "ms"},
		"query_p99_ms":     {ms(r.queryLat.quantile(0.99)), "ms"},
		"points_per_s":     {closedRate(r), "1/s"},
		"cpu_us_per_point": {cpuPerPoint(r), "us"},
		"peak_rss_mb":      {r.rssMB, "MiB"},
		"step_p50_ms":      {ms(r.stepLat.quantile(0.5)), "ms"},
		"step_p99_ms":      {ms(r.stepLat.quantile(0.99)), "ms"},
		"failed_frac":      {ratio(failed, attempted), "fraction"},
	}
}

func pick(m map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}

func printPass(out *os.File, label string, w workload, ps *pass, r *passResult, e2e map[string]metric) {
	attempted, failed := ps.ops.totals()
	fmt.Fprintf(out, "--- %s pass: %s, open loop %.0f/s, limit %v ---\n", label, w.name, w.rate, w.limit)
	ps.ops.print(out, label)
	n := r.queryLat.n
	fmt.Fprintf(out, "query latency (open loop, from due time): %d samples, %d beyond p99, %d over the %v limit; p50 %.4f ms (quiet windows), all samples p50 %.4f ms, p99 %.4f ms\n",
		n, n-int64(math.Ceil(float64(n)*0.99)), r.overLimit, w.limit, queryP50(r),
		ms(r.queryLat.quantile(0.5)), ms(r.queryLat.quantile(0.99)))
	quiet := r.quietWindows()
	for i, h := range r.windows {
		mark := ""
		if slices.Contains(quiet, i) {
			mark = " (quiet)"
		}
		fmt.Fprintf(out, "  window %d: %d samples, p50 %.4f ms, steal %.1f%%%s\n",
			i, h.n, ms(h.quantile(0.5)), 100*r.winSteal[i], mark)
	}
	fmt.Fprintf(out, "closed-loop points per window: %v; cpserve CPU %d ticks; machine steal %.1f%% of CPU time during the set-ups, %.1f%% during the open loop\n",
		r.closedPts, r.cpuTicks, 100*r.setupSteal, 100*r.openSteal)
	if r.stepLat.n > 0 {
		fmt.Fprintf(out, "step latency: %d samples, p50 %.3f ms, p99 %.3f ms\n",
			r.stepLat.n, ms(r.stepLat.quantile(0.5)), ms(r.stepLat.quantile(0.99)))
	}
	fmt.Fprintf(out, "setups: %v; loadgen lag p99 %.3f ms; repeat share %.3f; failed_frac %.6f (%d/%d); answer-check mismatches %d\n",
		r.setups, ms(r.lag.quantile(0.99)), r.repeatShare, float64(failed)/float64(attempted), failed, attempted, r.mismatches)
	if r.lagged != "" {
		fmt.Fprintf(out, "INVALID TIMING: %s; the answers are checked regardless\n", r.lagged)
	}
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note := ""
		if !slices.Contains(gated, k) {
			note = " (not gated)"
		}
		fmt.Fprintf(out, "  %-16s %14.4f %s%s\n", k, e2e[k].Value, e2e[k].Unit, note)
	}
}

func printResult(out *os.File, correct bool, attempted, failed int64, metrics map[string]metric) error {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
