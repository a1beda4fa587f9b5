// Package refine post-processes MULTIPROC schedules with local search —
// one concrete step in the paper's future-work direction ("design new
// algorithms", Sec. VI). Starting from any heuristic's semi-matching it
// repeatedly moves a single task to a different configuration whenever the
// move lexicographically decreases the descending load vector (the same
// order the vector-greedy heuristics optimize), until a local optimum.
//
// Properties (tested):
//   - never increases the makespan;
//   - terminates (the load vector strictly decreases in a well-founded
//     order and takes finitely many values);
//   - for SINGLEPROC-UNIT inputs expressed as hypergraphs, the fixpoint of
//     single moves is exactly a semi-matching with no length-2
//     cost-reducing path, i.e. the first rung of Harvey et al.'s ladder.
package refine

import (
	"context"

	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
	"semimatch/internal/loadvec"
)

// Options bounds the search.
type Options struct {
	// MaxRounds caps full passes over the tasks; 0 means no cap (run to a
	// local optimum — termination is guaranteed).
	MaxRounds int
}

// Result reports what the refinement did.
type Result struct {
	Assignment core.HyperAssignment
	Moves      int   // accepted single-task moves
	Rounds     int   // full passes over the task list
	Before     int64 // makespan before
	After      int64 // makespan after
	// Interrupted reports that the context was cancelled before a local
	// optimum was reached; the assignment is still valid and no worse than
	// the input.
	Interrupted bool
}

// ctxCheckInterval is how many task positions are examined between
// context polls.
const ctxCheckInterval = 64

// RefineCtx improves the assignment a on h by single-task moves. The
// input assignment is not modified. The local search polls ctx as it
// scans the task list and stops early when ctx is cancelled, returning
// the best assignment found so far with Interrupted set. Every intermediate state is a valid schedule no worse than the
// input, so an interrupted result is safe to use.
func RefineCtx(ctx context.Context, h *hypergraph.Hypergraph, a core.HyperAssignment, opts Options) Result {
	cur := append(core.HyperAssignment(nil), a...)
	res := Result{Before: core.HyperMakespan(h, a)}
	done := ctx.Done()
	sinceCheck := 0

	tr := loadvec.From(core.HyperLoads(h, cur))
	m := mover{pos: make([]int32, h.NProcs)}
	var cand, best loadvec.Candidate[int64]

scan:
	for {
		if opts.MaxRounds > 0 && res.Rounds >= opts.MaxRounds {
			break
		}
		res.Rounds++
		improved := false
		for t := 0; t < h.NTasks; t++ {
			if done != nil {
				sinceCheck++
				if sinceCheck >= ctxCheckInterval {
					sinceCheck = 0
					select {
					case <-done:
						res.Interrupted = true
						break scan
					default:
					}
				}
			}
			edges := h.TaskEdges(t)
			if len(edges) == 1 {
				continue
			}
			// A move must strictly improve on staying put, the empty
			// update; later moves must beat the best move so far.
			curEdge := cur[t]
			bestEdge := curEdge
			tr.Stage(&best, nil, nil)
			for _, e := range edges {
				if e == curEdge {
					continue
				}
				m.stage(tr, &cand, h.EdgeProcs(curEdge), h.Weight[curEdge], h.EdgeProcs(e), h.Weight[e])
				if tr.Compare(&cand, &best) < 0 {
					bestEdge = e
					cand, best = best, cand
				}
			}
			if bestEdge != curEdge {
				tr.Commit(&best)
				cur[t] = bestEdge
				res.Moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	res.Assignment = cur
	res.After = core.HyperMakespan(h, cur)
	return res
}

// mover stages single-task moves without allocating: procs and vals
// collect the processors a move touches and their loads after it, and
// pos[u] is u's index in procs while procs[pos[u]] == u.
type mover struct {
	procs []int32
	vals  []int64
	pos   []int32
}

// stage makes c the move of a task from its configuration on processors
// from, of weight wFrom, to the one on processors to, of weight wTo.
func (m *mover) stage(tr *loadvec.Tracker[int64], c *loadvec.Candidate[int64], from []int32, wFrom int64, to []int32, wTo int64) {
	m.procs, m.vals = m.procs[:0], m.vals[:0]
	for _, u := range from {
		m.pos[u] = int32(len(m.procs))
		m.procs = append(m.procs, u)
		m.vals = append(m.vals, tr.Load(u)-wFrom)
	}
	for _, u := range to {
		if i := m.pos[u]; int(i) < len(m.procs) && m.procs[i] == u {
			m.vals[i] += wTo
			continue
		}
		m.pos[u] = int32(len(m.procs))
		m.procs = append(m.procs, u)
		m.vals = append(m.vals, tr.Load(u)+wTo)
	}
	tr.Stage(c, m.procs, m.vals)
}
