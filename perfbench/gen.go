package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// family describes a seeded MULTIPROC instance generator of the random
// shape semiload draws from (internal/bench perfHyper): each task has
// between one and degree configurations, each on one to maxPins distinct
// processors with its own weight in [wMin, wMax].
type family struct {
	tasks, procs, degree, maxPins int
	wMin, wMax                    int64
}

// hotFamily is semiload's loadHotFamily, which it draws both its warm set
// and its stampede misses from.
var hotFamily = family{tasks: 12, procs: 4, degree: 3, maxPins: 2, wMin: 1, wMax: 40}

// instance is one generated problem, kept in the harness's own form so
// that every answer can be checked without trusting the server.
type instance struct {
	procs int
	// Edges are stored task-grouped: task t owns edges ptr[t]..ptr[t+1]-1,
	// and edge i is configuration line i of body.
	ptr    []int
	pins   [][]int
	weight []int64
	body   string
	// lb is a lower bound on any schedule's makespan: the larger of the
	// heaviest task's cheapest configuration and the average cheapest load.
	lb int64
}

func generate(f family, rng *rand.Rand) *instance {
	in := &instance{procs: f.procs, ptr: make([]int, f.tasks+1)}
	for t := 0; t < f.tasks; t++ {
		for j, n := 0, 1+rng.Intn(f.degree); j < n; j++ {
			ps := rng.Perm(f.procs)[:1+rng.Intn(f.maxPins)]
			sort.Ints(ps)
			in.pins = append(in.pins, ps)
			in.weight = append(in.weight, f.wMin+rng.Int63n(f.wMax-f.wMin+1))
		}
		in.ptr[t+1] = len(in.pins)
	}
	in.finish()
	return in
}

// finish renders the body and the lower bound from the edge lists.
func (in *instance) finish() {
	tasks := len(in.ptr) - 1
	var sb strings.Builder
	fmt.Fprintf(&sb, "hypergraph %d %d %d\n", tasks, in.procs, len(in.pins))
	var maxMin, sumMin int64
	for t := 0; t < tasks; t++ {
		var cheapest, cheapestLoad int64 = -1, -1
		for e := in.ptr[t]; e < in.ptr[t+1]; e++ {
			w := in.weight[e]
			fmt.Fprintf(&sb, "%d %d %d", t, w, len(in.pins[e]))
			for _, p := range in.pins[e] {
				fmt.Fprintf(&sb, " %d", p)
			}
			sb.WriteByte('\n')
			if cheapest < 0 || w < cheapest {
				cheapest = w
			}
			if l := w * int64(len(in.pins[e])); cheapestLoad < 0 || l < cheapestLoad {
				cheapestLoad = l
			}
		}
		maxMin = max(maxMin, cheapest)
		sumMin += cheapestLoad
	}
	in.body = sb.String()
	in.lb = max(maxMin, (sumMin+int64(in.procs)-1)/int64(in.procs))
}

// shuffled returns an isomorphic restatement: each task's configuration
// lines in a fresh order. The server's canonical fingerprint is unchanged,
// so it must answer from cache, translated to the new edge numbering.
func (in *instance) shuffled(rng *rand.Rand) *instance {
	out := &instance{procs: in.procs, ptr: in.ptr}
	for t := 0; t+1 < len(in.ptr); t++ {
		lo := in.ptr[t]
		for _, j := range rng.Perm(in.ptr[t+1] - lo) {
			out.pins = append(out.pins, in.pins[lo+j])
			out.weight = append(out.weight, in.weight[lo+j])
		}
	}
	out.finish()
	return out
}

// solveResponse is the part of semiserve's POST /solve answer the
// harness checks.
type solveResponse struct {
	Fingerprint string  `json:"fingerprint"`
	Makespan    int64   `json:"makespan"`
	LowerBound  int64   `json:"lower_bound"`
	Status      string  `json:"status"`
	CacheTier   string  `json:"cache_tier"`
	Assignment  []int32 `json:"assignment"`
	Loads       []int64 `json:"loads"`
}

// check verifies that r is a feasible schedule of in whose reported loads
// and makespan are the ones its assignment implies, and that neither the
// makespan nor the claimed lower bound contradicts the harness's bound.
func (in *instance) check(r *solveResponse) error {
	tasks := len(in.ptr) - 1
	if len(r.Assignment) != tasks {
		return fmt.Errorf("assignment has %d entries for %d tasks", len(r.Assignment), tasks)
	}
	loads := make([]int64, in.procs)
	for t, a := range r.Assignment {
		e := int(a)
		if e < in.ptr[t] || e >= in.ptr[t+1] {
			return fmt.Errorf("task %d assigned to %d, which is not one of its configurations", t, a)
		}
		for _, p := range in.pins[e] {
			loads[p] += in.weight[e]
		}
	}
	var makespan int64
	for p, l := range loads {
		makespan = max(makespan, l)
		if p >= len(r.Loads) || r.Loads[p] != l {
			return fmt.Errorf("reported loads %v, assignment implies %v", r.Loads, loads)
		}
	}
	switch {
	case r.Makespan != makespan:
		return fmt.Errorf("reported makespan %d, assignment implies %d", r.Makespan, makespan)
	case makespan < in.lb:
		return fmt.Errorf("makespan %d is below the lower bound %d", makespan, in.lb)
	case r.LowerBound > makespan:
		return fmt.Errorf("claimed lower bound %d exceeds the makespan %d", r.LowerBound, makespan)
	}
	return nil
}

// mix derives independent stream seeds from the run seed, so that every
// client and every generated instance gets its own reproducible stream.
func mix(vals ...int64) int64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= uint64(v)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

func newRand(vals ...int64) *rand.Rand { return rand.New(rand.NewSource(mix(vals...))) }
