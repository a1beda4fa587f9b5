package core

import (
	"context"
	"fmt"

	"semimatch/internal/bipartite"
	"semimatch/internal/matching"
)

// ExactUnit solves SINGLEPROC-UNIT exactly (Sec. IV-A): it finds the
// minimum D such that a matching covering all tasks exists when every
// processor may take up to D tasks, and returns the corresponding
// assignment together with D (the optimal makespan).
//
// D is bisected between ⌈n/p⌉ and the makespan of sorted-greedy, the
// improvement the paper notes would give a better worst-case bound than
// trying D = 1, 2, 3, …. Each probe runs the capacitated Hopcroft–Karp
// matcher with right-vertex capacity D on g itself instead of
// materializing the paper's D-fold replicated graph G_D. The assignment
// returned is the matcher's at D = OPT, so the incremental search would
// return the same one.
//
// ctx is checked between the matcher's phases, inside each probe. Once
// it has ended, ExactUnit returns the best feasible assignment found so
// far (sorted-greedy's, or the last feasible probe's), its makespan, and
// ctx.Err().
//
// Returns an error if some task has an empty eligibility set (then no
// finite makespan exists) or if the graph is weighted (the construction is
// only exact for unit weights; weighted SINGLEPROC is NP-complete).
func ExactUnit(ctx context.Context, g *bipartite.Graph) (Assignment, int64, error) {
	if !g.Unit() {
		return nil, 0, fmt.Errorf("core: ExactUnit requires a unit-weighted graph")
	}
	if g.NLeft == 0 {
		return Assignment{}, 0, nil
	}
	for t := 0; t < g.NLeft; t++ {
		if g.Degree(t) == 0 {
			return nil, 0, fmt.Errorf("core: task %d has no eligible processor", t)
		}
	}
	if g.NRight == 0 {
		return nil, 0, fmt.Errorf("core: no processors")
	}

	lo := (g.NLeft + g.NRight - 1) / g.NRight // ⌈n/p⌉ ≤ OPT
	incumbent := SortedGreedy(g)
	hi := max(int(Makespan(g, incumbent)), lo)
	// probe tries deadline d while ctx allows it; a feasible answer
	// becomes the incumbent.
	probe := func(d int) (Assignment, error) {
		m, err := matching.HopcroftKarpCap(ctx, matching.Wrap(g.NLeft, g.NRight, g.Ptr, g.Adj), d)
		if err != nil {
			return nil, err
		}
		if matching.Cardinality(m) != g.NLeft {
			return nil, nil
		}
		incumbent = m
		return m, nil
	}
	// Invariant: hi is feasible (sorted-greedy witnesses it), and once a
	// probe succeeds, best is the matcher's assignment at hi.
	var best Assignment
	for lo < hi {
		mid := (lo + hi) / 2
		a, err := probe(mid)
		if err != nil {
			return incumbent, Makespan(g, incumbent), err
		}
		if a != nil {
			best, hi = a, mid
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		// No probe below the greedy makespan succeeded: the matcher's
		// assignment at OPT = hi is still owed.
		a, err := probe(hi)
		if err != nil {
			return incumbent, Makespan(g, incumbent), err
		}
		if a == nil {
			return nil, 0, fmt.Errorf("core: internal error, bisection lost feasibility at %d", hi)
		}
		best = a
	}
	return best, int64(hi), nil
}
