package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/knn"
)

// Workload data follows the paper's §5.1 protocol at a fixed size: the
// Supreme generator, MNAR missing cells at 20%, candidate repairs capped at
// 25 per dirty row. The task itself is generated from the fixed taskSeed:
// clean-step costs, and so the clean workload's latencies, depend strongly
// on the generated rows, and a per-seed dataset would turn that into
// run-to-run spread. The workload seed drives everything the requests
// carry: the Poisson arrivals, which test points form the hot working set,
// the session batch and the cold sequence, and the popularity draws.
const (
	taskSeed   = 1
	trainRows  = 1000 // ≈870 dirty rows, ≈12.8k candidates
	valPoints  = 40   // clean-session validation set
	testPoints = 1000 // query-point pool
	hotSet     = 200  // hot-repeat working set: fits the 256-entry engine LRU
	zipfS      = 1.1  // hot-repeat popularity skew
	datasetK   = experiments.ModelK
	dsName     = "supreme"
)

type benchData struct {
	ds     *dataset.Incomplete
	kernel knn.Kernel
	k      int
	truth  []int
	val    [][]float64
	test   [][]float64
	perm   []int     // seeded order of the test pool: point id i is test[perm[i]]
	hotCDF []float64 // cumulative zipf weights over point ids [0, hotSet)

	registerBody []byte
	cleanBody    []byte
}

func buildData(seed int64) (*benchData, error) {
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		return nil, err
	}
	scale := experiments.Small
	scale.TrainN, scale.ValN, scale.TestN = trainRows, valPoints, testPoints
	task, err := experiments.BuildTask(spec, scale, taskSeed, 0)
	if err != nil {
		return nil, fmt.Errorf("building the §5.1 task: %w", err)
	}
	d := &benchData{
		ds:     task.Repairs.Dataset,
		kernel: task.Kernel,
		k:      datasetK,
		truth:  task.Repairs.Truth,
		val:    task.ValX,
		test:   task.TestX,
		perm:   rand.New(rand.NewSource(seed)).Perm(len(task.TestX)),
	}
	if len(d.test) < hotSet {
		return nil, fmt.Errorf("task has %d test points, need %d", len(d.test), hotSet)
	}
	total := 0.0
	for i := 0; i < hotSet; i++ {
		total += 1 / math.Pow(float64(i+1), zipfS)
		d.hotCDF = append(d.hotCDF, total)
	}
	for i := range d.hotCDF {
		d.hotCDF[i] /= total
	}

	type example struct {
		Candidates [][]float64 `json:"candidates"`
		Label      int         `json:"label"`
	}
	reg := struct {
		Name      string            `json:"name"`
		NumLabels int               `json:"num_labels"`
		Examples  []example         `json:"examples"`
		Kernel    map[string]string `json:"kernel"`
		K         int               `json:"k"`
	}{Name: dsName, NumLabels: d.ds.NumLabels, Kernel: map[string]string{"name": "neg-euclidean"}, K: d.k}
	for _, ex := range d.ds.Examples {
		reg.Examples = append(reg.Examples, example{Candidates: ex.Candidates, Label: ex.Label})
	}
	if d.registerBody, err = json.Marshal(reg); err != nil {
		return nil, err
	}
	clean := struct {
		Truth     []int       `json:"truth"`
		ValPoints [][]float64 `json:"val_points"`
	}{d.truth, d.val}
	if d.cleanBody, err = json.Marshal(clean); err != nil {
		return nil, err
	}
	return d, nil
}

// hotPoint maps a uniform draw in [0,1) to a working-set point by zipf rank.
func (d *benchData) hotPoint(u float64) int {
	return sort.SearchFloat64s(d.hotCDF, u)
}

// point returns query point id. Ids beyond the test pool reuse a pool point
// shifted by a multiple of 1e-6 on the first feature, so every id is a
// distinct point (a fresh cache key) from the same distribution.
func (d *benchData) point(id int) []float64 {
	src := d.test[d.perm[id%len(d.test)]]
	p := append([]float64(nil), src...)
	if shift := id / len(d.test); shift > 0 {
		p[0] += float64(shift) * 1e-6
	}
	return p
}

// pointsBody encodes a query body {"points": [...]} with exact
// (round-trip) float formatting.
func (d *benchData) pointsBody(ids []int) []byte {
	b := make([]byte, 0, 160*len(ids)+16)
	b = append(b, `{"points":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range d.point(id) {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// splitmix is a stateless hash-based generator: request j of a phase draws
// its points from splitmix(seed, phase, j, slot), so a closed-loop phase,
// whose request count depends on speed, still sends a seed-determined
// sequence.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func uniform(seed int64, phase, j, slot int) float64 {
	h := splitmix(uint64(seed))
	h = splitmix(h ^ uint64(phase))
	h = splitmix(h ^ uint64(j))
	h = splitmix(h ^ uint64(slot))
	return float64(h>>11) / (1 << 53)
}

// reference answers one point from public core functions on a fresh engine
// with pins applied in order: Q2 by Engine.Counts, Q1 by Engine.CheckMM
// (binary labels) — the fields serve.PointResult carries.
func (d *benchData) reference(pt []float64, pins [][2]int) (pred int, certain bool, entropy float64, fractions []float64, err error) {
	e := core.NewEngine(d.ds, d.kernel, pt)
	for _, p := range pins {
		e.SetPin(p[0], p[1])
	}
	sc, err := e.NewScratch(d.k)
	if err != nil {
		return 0, false, 0, nil, err
	}
	fractions = append([]float64(nil), e.Counts(sc, -1, -1)...)
	pred, entropy = core.ArgmaxProb(fractions), core.Entropy(fractions)
	if d.ds.NumLabels == 2 {
		q1, err := e.CheckMM(d.k, -1, -1)
		if err != nil {
			return 0, false, 0, nil, err
		}
		for _, b := range q1 {
			certain = certain || b
		}
	} else {
		certain = core.IsCertain(fractions)
	}
	return pred, certain, entropy, fractions, nil
}
