// Package refine post-processes MULTIPROC schedules with local search —
// one concrete step in the paper's future-work direction ("design new
// algorithms", Sec. VI). Starting from any heuristic's semi-matching it
// repeatedly moves a single task to a different configuration whenever the
// move lexicographically decreases the descending load vector (the same
// order the vector-greedy heuristics optimize), until a local optimum.
// Like the vector greedies, it compares a move with staying put on the
// processors of the two configurations alone (loadvec.Comparer), over a
// plain per-processor load slice, so a task costs O(d · k²) at worst for
// d configurations touching k processors between two of them, and never
// O(p).
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

	loads := core.HyperLoads(h, cur)
	var c loadvec.Comparer[int64]

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
			// Take the task off its processors. Staying put is then
			// putting it back on curEdge, and every move competes with
			// it, and with the best move so far, on the processors the
			// two touch. A move must be strictly better to win.
			curEdge := cur[t]
			for _, u := range h.EdgeProcs(curEdge) {
				loads[u] -= h.Weight[curEdge]
			}
			bestEdge := curEdge
			for _, e := range edges {
				if e != curEdge && c.Compare(loads, h.EdgeProcs(e), h.Weight[e], h.EdgeProcs(bestEdge), h.Weight[bestEdge]) < 0 {
					bestEdge = e
				}
			}
			for _, u := range h.EdgeProcs(bestEdge) {
				loads[u] += h.Weight[bestEdge]
			}
			if bestEdge != curEdge {
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
