package main

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestLaneChargesStallToEveryDueRequest is the coordinated-omission check:
// a stub server that stalls every request for a fixed interval must show
// that stall in the latency of every request that was due during it — not
// only in the one request that happened to be in flight.
func TestLaneChargesStallToEveryDueRequest(t *testing.T) {
	const (
		period     = 2 * time.Millisecond
		total      = 300 * time.Millisecond
		stallStart = 100 * time.Millisecond
		stallEnd   = 180 * time.Millisecond
		// Slack for the generator's timer error on a busy machine.
		tolerance = 5 * time.Millisecond
	)
	var (
		mu    sync.Mutex
		start time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		s := start
		mu.Unlock()
		if since := time.Since(s); since >= stallStart && since < stallEnd {
			time.Sleep(stallEnd - since)
		}
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := newClient(2)
	l := &lane{due: fixedSchedule(period, total), workers: 2, send: func(int) bool {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}}
	mu.Lock()
	start = time.Now().Add(time.Millisecond)
	mu.Unlock()
	res := l.run(start)
	stalled := 0
	for i, due := range l.due {
		if !res.ok[i] {
			t.Fatalf("request %d failed", i)
		}
		if due >= stallStart && due < stallEnd {
			stalled++
			if want := stallEnd - due - tolerance; res.latency[i] < want {
				t.Errorf("request due at %v: latency %v, want ≥ %v (the stall ends at %v)", due, res.latency[i], want, stallEnd)
			}
		}
	}
	if stalled < 30 {
		t.Fatalf("only %d requests were due during the stall", stalled)
	}
	// Requests due well before the stall must not carry it.
	for i, due := range l.due {
		if due < stallStart-20*time.Millisecond && res.latency[i] > 20*time.Millisecond {
			t.Errorf("request due at %v before the stall: latency %v", due, res.latency[i])
		}
	}
}

func TestPoissonScheduleIsSeededAndOnRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 500, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 500, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) < 4800 || len(a) > 5200 {
		t.Errorf("%d arrivals in 10s at 500/s", len(a))
	}
}
