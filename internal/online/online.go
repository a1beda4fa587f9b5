// Package online implements online variants of SINGLEPROC scheduling:
// tasks arrive one at a time and must be assigned to an eligible processor
// immediately and irrevocably. The paper's related work (Lee, Leung &
// Pinedo, J. Scheduling 2011 [18]) studies exactly this setting for equal
// processing times under machine eligibility constraints.
//
// For unit tasks with eligibility constraints, online greedy (assign to
// the least-loaded eligible processor) is the natural algorithm; its
// competitive ratio against the offline optimum is Θ(log p) in the worst
// case — the Chain family of Fig. 3 realizes the lower bound with
// k = log2(p) — while on random instances it stays close to 1. This
// package provides the online scheduler plus an experiment helper that
// measures empirical competitive ratios.
package online

import (
	"context"
	"fmt"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
)

// Scheduler assigns arriving tasks to processors immediately. Create with
// New; feed arrivals with Assign.
type Scheduler struct {
	nProcs int
	loads  []int64
	placed int
}

// New returns an online scheduler over nProcs processors.
func New(nProcs int) *Scheduler {
	return &Scheduler{nProcs: nProcs, loads: make([]int64, nProcs)}
}

// Loads returns a copy of the current processor loads.
func (s *Scheduler) Loads() []int64 {
	return append([]int64(nil), s.loads...)
}

// Makespan returns the current maximum load.
func (s *Scheduler) Makespan() int64 {
	max := int64(0)
	for _, l := range s.loads {
		if l > max {
			max = l
		}
	}
	return max
}

// Placed returns the number of tasks assigned so far.
func (s *Scheduler) Placed() int { return s.placed }

// Assign places a task that may run on any processor in eligible, taking
// weight time units, onto the least-loaded eligible processor (ties to
// the lowest index). It returns the chosen processor.
func (s *Scheduler) Assign(eligible []int32, weight int64) (int32, error) {
	if len(eligible) == 0 {
		return -1, fmt.Errorf("online: task with empty eligibility set")
	}
	if weight <= 0 {
		return -1, fmt.Errorf("online: non-positive weight %d", weight)
	}
	best := int32(-1)
	var bestLoad int64
	for _, p := range eligible {
		if p < 0 || int(p) >= s.nProcs {
			return -1, fmt.Errorf("online: processor %d out of range", p)
		}
		if best == -1 || s.loads[p] < bestLoad {
			best, bestLoad = p, s.loads[p]
		}
	}
	s.loads[best] += weight
	s.placed++
	return best, nil
}

// Replay feeds the tasks of a SINGLEPROC instance to an online scheduler
// in the given arrival order (task indices; nil means index order) and
// returns the resulting assignment and makespan.
func Replay(g *bipartite.Graph, order []int32) (core.Assignment, int64, error) {
	s := New(g.NRight)
	a := make(core.Assignment, g.NLeft)
	for i := range a {
		a[i] = core.Unassigned
	}
	n := g.NLeft
	for i := 0; i < n; i++ {
		t := int32(i)
		if order != nil {
			t = order[i]
		}
		row := g.Neighbors(int(t))
		w := int64(1)
		// For weighted graphs the online task carries one weight per
		// eligible processor; the model here uses the minimum edge weight
		// (the task's intrinsic size), keeping the unit case exact.
		if ws := g.Weights(int(t)); ws != nil {
			w = ws[0]
			for _, x := range ws[1:] {
				if x < w {
					w = x
				}
			}
		}
		p, err := s.Assign(row, w)
		if err != nil {
			return nil, 0, fmt.Errorf("online: task %d: %w", t, err)
		}
		a[t] = p
	}
	return a, s.Makespan(), nil
}

// CompetitiveRatio replays the instance online (index order) and divides
// by the offline optimal makespan (exact algorithm; unit graphs only).
func CompetitiveRatio(g *bipartite.Graph) (float64, error) {
	_, m, err := Replay(g, nil)
	if err != nil {
		return 0, err
	}
	_, opt, err := core.ExactUnit(context.Background(), g)
	if err != nil {
		return 0, err
	}
	return float64(m) / float64(opt), nil
}
