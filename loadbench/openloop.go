package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns open-loop due times (offsets from the phase start)
// with exponential inter-arrival gaps at rate per second, up to dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// fixedSchedule returns due times every period, up to dur.
func fixedSchedule(period, dur time.Duration) []time.Duration {
	var due []time.Duration
	for d := period; d < dur; d += period {
		due = append(due, d)
	}
	return due
}

// lane drives one open-loop request stream over a fixed set of workers (one
// connection each). Workers claim requests in due order; an idle worker
// sleeps until the claimed request is due, a busy system makes requests wait
// for a free worker. Latency is measured from the due time, so a stall is
// charged to every request that was due during it (no coordinated omission).
// The one exception is the generator's own timer error: when an idle worker
// wakes after the due time, latency starts at the wake-up, and the lateness
// is recorded as lag instead. Sleep overshoot of up to a few milliseconds is
// common on small virtual machines, and it is not the server's doing.
type lane struct {
	due     []time.Duration
	workers int
	// send issues request i and reports whether it succeeded; it is called
	// from worker goroutines.
	send func(i int) bool
}

// laneResult holds per-request timings, indexed like lane.due.
type laneResult struct {
	latency []time.Duration // completion minus due (or wake-up, see lane)
	ok      []bool
	lag     []time.Duration // only for requests a worker waited for
}

// run executes the lane from start and returns once every request finished.
func (l *lane) run(start time.Time) *laneResult {
	res := &laneResult{
		latency: make([]time.Duration, len(l.due)),
		ok:      make([]bool, len(l.due)),
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(l.due) {
					return
				}
				from := start.Add(l.due[i])
				if d := time.Until(from); d > 0 {
					time.Sleep(d)
					woke := time.Now()
					mu.Lock()
					res.lag = append(res.lag, woke.Sub(from))
					mu.Unlock()
					from = woke
				}
				ok := l.send(i)
				res.latency[i] = time.Since(from)
				res.ok[i] = ok
			}
		}()
	}
	wg.Wait()
	return res
}

// closedLoop runs workers that each send back to back while more(j) holds
// for the next request number j.
func closedLoop(workers int, more func(j int) bool, send func(j int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); more(j); j = int(next.Add(1) - 1) {
				send(j)
			}
		}()
	}
	wg.Wait()
}
