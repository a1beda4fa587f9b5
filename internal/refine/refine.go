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

	tr := loadvec.New[int64](h.NProcs)
	procsAll := make([]int32, h.NProcs)
	for i := range procsAll {
		procsAll[i] = int32(i)
	}
	tr.SetAll(procsAll, core.HyperLoads(h, cur))

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
			curEdge := cur[t]
			// The "stay" candidate: identity move (no change).
			edges := h.TaskEdges(t)
			if len(edges) == 1 {
				continue
			}
			// Build the union of processors across the current edge and
			// each alternative, expressing every move as a SetAll batch.
			curProcs := h.EdgeProcs(curEdge)
			curW := h.Weight[curEdge]
			bestEdge := curEdge
			var bestCand loadvec.Candidate[int64]
			haveBest := false
			for _, e := range edges {
				if e == curEdge {
					continue
				}
				cand := moveCandidate(h, tr, curProcs, curW, e)
				if !haveBest {
					// Compare against "no move": the move must strictly
					// improve the vector, i.e. the candidate's resulting
					// vector must be smaller than the current vector.
					if candImproves(tr, cand) {
						bestEdge, bestCand, haveBest = e, cand, true
					}
					continue
				}
				if tr.Compare(cand, bestCand) < 0 {
					bestEdge, bestCand = e, cand
				}
			}
			if haveBest {
				tr.Commit(bestCand)
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

// moveCandidate builds the batch update for moving a task from its current
// edge (procs curProcs, weight curW) to edge e.
func moveCandidate(h *hypergraph.Hypergraph, tr *loadvec.Tracker[int64], curProcs []int32, curW int64, e int32) loadvec.Candidate[int64] {
	newProcs := h.EdgeProcs(e)
	w := h.Weight[e]
	// Union of affected processors with net deltas.
	procs := make([]int32, 0, len(curProcs)+len(newProcs))
	vals := make([]int64, 0, len(curProcs)+len(newProcs))
	seen := make(map[int32]int, len(curProcs)+len(newProcs))
	for _, u := range curProcs {
		seen[u] = len(procs)
		procs = append(procs, u)
		vals = append(vals, tr.Load(u)-curW)
	}
	for _, u := range newProcs {
		if i, ok := seen[u]; ok {
			vals[i] += w
			continue
		}
		seen[u] = len(procs)
		procs = append(procs, u)
		vals = append(vals, tr.Load(u)+w)
	}
	return tr.NewCandidate(procs, vals)
}

// candImproves reports whether applying cand yields a strictly smaller
// descending load vector than the current one.
func candImproves(tr *loadvec.Tracker[int64], cand loadvec.Candidate[int64]) bool {
	cur := tr.Sorted()
	vec := tr.ResultVec(cand)
	return loadvec.CompareVec(vec, cur) < 0
}
