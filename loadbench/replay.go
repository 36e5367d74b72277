package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/selection"
)

// cleanReplay re-runs the CPClean session in the benchmark process from the
// public core and selection functions — one engine per validation point, the
// incremental Selector, MM certainty — exactly as a served session steps. Its
// step sequence is the reference the served steps must equal, and its
// engines' plan-cache counters are the plan tiers the selection path used.
type cleanReplay struct {
	d       *benchData
	engines []*core.Engine
	certain []bool
	cleaned []bool
	sel     *selection.Selector
	steps   int
}

func newCleanReplay(d *benchData, nproc int) (*cleanReplay, error) {
	r := &cleanReplay{
		d:       d,
		engines: make([]*core.Engine, len(d.val)),
		certain: make([]bool, len(d.val)),
		cleaned: make([]bool, d.ds.N()),
	}
	for v, pt := range d.val {
		r.engines[v] = core.NewEngine(d.ds, d.kernel, pt)
	}
	scratches, err := core.NewScratchPool(r.engines[0], d.k)
	if err != nil {
		return nil, err
	}
	if err := r.refreshCertainty(); err != nil {
		return nil, err
	}
	r.sel, err = selection.New(r.engines, r.certain, scratches, selection.Config{
		K: d.k, Parallelism: nproc, SweepWorkers: nproc,
	})
	return r, err
}

func (r *cleanReplay) refreshCertainty() error {
	for v, e := range r.engines {
		if r.certain[v] {
			continue
		}
		ok, err := e.IsCertainMM(r.d.k)
		if err != nil {
			return err
		}
		r.certain[v] = ok
	}
	return nil
}

func (r *cleanReplay) candidateRows() []int {
	var out []int
	for i := range r.cleaned {
		if !r.cleaned[i] && r.d.ds.Examples[i].M() > 1 {
			out = append(out, i)
		}
	}
	return out
}

func (r *cleanReplay) done() bool {
	for _, c := range r.certain {
		if !c {
			return len(r.candidateRows()) == 0
		}
	}
	return true
}

// step executes one greedy step and returns the (row, candidate) cleaned.
func (r *cleanReplay) step() ([2]int, error) {
	if r.done() {
		return [2]int{}, fmt.Errorf("reference session finished after %d steps", r.steps)
	}
	rows, _, _ := r.sel.SelectBatch(r.candidateRows(), 1)
	row := rows[0]
	cand := r.d.truth[row]
	r.cleaned[row] = true
	r.sel.Pin(row, cand)
	r.steps++
	return [2]int{row, cand}, r.refreshCertainty()
}

func (r *cleanReplay) planStats() core.PlanStats {
	var st core.PlanStats
	for _, e := range r.engines {
		st.Add(e.PlanStats())
	}
	return st
}
