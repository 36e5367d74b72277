package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Operation types and phases for the attempted/succeeded/failed accounting.
const (
	opRegister      = "register"
	opSessionCreate = "session_create"
	opDatasetQuery  = "dataset_query"
	opSessionQuery  = "session_query"
	opStep          = "step"

	phaseSetup  = "setup"
	phaseWarmup = "warmup"
	phaseOpen   = "open"
	phaseClosed = "closed"
	phaseProbe  = "probe" // after the measured phases, on an idle server
)

type opCount struct{ attempted, succeeded, failed int64 }

// opBook counts operations per (type, phase). A failure is any non-2xx
// status, transport error or timeout; an answer-check mismatch turns a
// succeeded operation into a failed one.
type opBook struct {
	mu sync.Mutex
	m  map[[2]string]*opCount
}

func newOpBook() *opBook { return &opBook{m: make(map[[2]string]*opCount)} }

func (b *opBook) add(op, phase string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.m[[2]string{op, phase}]
	if c == nil {
		c = &opCount{}
		b.m[[2]string{op, phase}] = c
	}
	c.attempted++
	if ok {
		c.succeeded++
	} else {
		c.failed++
	}
}

// mismatch moves one succeeded operation to failed after the answer check.
func (b *opBook) mismatch(op, phase string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.m[[2]string{op, phase}]; c != nil && c.succeeded > 0 {
		c.succeeded--
		c.failed++
	}
}

func (b *opBook) totals() (attempted, failed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.m {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

func (b *opBook) print(w io.Writer, label string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([][2]string, 0, len(b.m))
	for k := range b.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return phaseOrder(keys[i][1]) < phaseOrder(keys[j][1])
	})
	fmt.Fprintf(w, "operations (%s):\n  %-15s %-7s %9s %9s %7s\n", label, "type", "phase", "attempted", "succeeded", "failed")
	for _, k := range keys {
		c := b.m[k]
		fmt.Fprintf(w, "  %-15s %-7s %9d %9d %7d\n", k[0], k[1], c.attempted, c.succeeded, c.failed)
	}
}

func phaseOrder(p string) int {
	switch p {
	case phaseSetup:
		return 0
	case phaseWarmup:
		return 1
	case phaseOpen:
		return 2
	case phaseClosed:
		return 3
	default:
		return 4
	}
}
