package solve

import (
	"context"
	"fmt"
	"runtime"

	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/loadvec"
	"semimatch/internal/refine"
	"semimatch/internal/registry"
)

// candidate is one race member's outcome: its lineup index and either a
// schedule with its descending load vector or the member's error.
type candidate struct {
	idx int
	a   []int32
	vec []int64
	err error
}

// race is the auto policy's heuristic stage. No single greedy wins
// everywhere (the paper's evaluation shows VGH ahead on unweighted
// FewgManyg instances but EVG on weighted ones), so every member of the
// class's default heuristic lineup — or of o.Portfolio — runs, on at most
// o.Workers goroutines (0 = GOMAXPROCS), and the best schedule wins.
// Judging is by full descending load vector, ties going to the earlier
// member, so the winner does not depend on goroutine timing. With
// o.Refine, MULTIPROC candidates are refined before they are judged.
//
// The anytime contract: a member that has not started when ctx ends
// never starts. The race returns once every member has finished, or once
// ctx has ended and at least one candidate exists — a member already
// running (the greedies are not interruptible) is waited for only while
// there is nothing else to return, and is otherwise left to finish in the
// background with its result discarded; RunOptions then reports the
// schedule truncated, since ctx has ended. The race returns ctx's error
// only when ctx was already done when it began.
//
// With one worker there is nothing to run beside the caller, so the
// members run on the caller's goroutine, one after another in lineup
// order, with no goroutine hand-off. There is then no running member to
// leave behind: when ctx ends while member k ≥ 2 runs, the race returns
// after that member finishes and has been judged, not at once.
func race(ctx context.Context, p Problem, o Options, obs *obsState) (*Report, error) {
	solvers := defaultLineup[p.Class()]
	if len(o.Portfolio) > 0 {
		var err error
		if _, solvers, err = registry.ResolveClass(p.Class(), o.Portfolio); err != nil {
			return nil, fmt.Errorf("solve: %w", err)
		}
	}
	return raceMembers(ctx, p, o, obs, solvers)
}

// raceMembers is race over resolved members, in lineup order.
func raceMembers(ctx context.Context, p Problem, o Options, obs *obsState, solvers []*registry.Solver) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(solvers))

	span := o.trace.StartChild("race")
	defer span.End()
	// One slot per member, so a member finishing after the race has
	// returned never blocks.
	results := make(chan candidate, len(solvers))
	started := 0
	launch := func() {
		i := started
		started++
		if workers == 1 {
			results <- runMember(ctx, p, i, solvers[i], o.Refine)
			return
		}
		go func() { results <- runMember(ctx, p, i, solvers[i], o.Refine) }()
	}
	for started < workers {
		launch()
	}

	best := candidate{idx: -1}
	var firstErr candidate
	judged := 0
	judge := func(c candidate) {
		judged++
		if c.err != nil {
			if firstErr.err == nil || c.idx < firstErr.idx {
				firstErr = c
			}
			return
		}
		if best.idx < 0 {
			best = c
		} else if cmp := loadvec.CompareVec(c.vec, best.vec); cmp < 0 || (cmp == 0 && c.idx < best.idx) {
			best = c
		}
		obs.emit(solvers[c.idx].Name, vecMakespan(c.vec), c.a, false)
	}
	done := ctx.Done()
collect:
	for judged < started {
		select {
		case c := <-results:
			judge(c)
			if started < len(solvers) && ctx.Err() == nil {
				launch()
			}
		case <-done:
			if best.idx < 0 {
				done = nil // nothing to return yet: wait for a running member
				continue
			}
			for {
				select {
				case c := <-results:
					judge(c)
				default:
					break collect
				}
			}
		}
	}

	if best.idx < 0 {
		if firstErr.err != nil {
			return nil, firstErr.err
		}
		return nil, fmt.Errorf("solve: no heuristic finished: %w", ctx.Err())
	}
	rep := &Report{Solver: solvers[best.idx].Name, Assignment: best.a, stageMakespan: vecMakespan(best.vec)}
	span.SetAttr("winner", rep.Solver)
	span.SetAttr("makespan", rep.stageMakespan)
	return rep, nil
}

// runMember runs one race member. Members already race on their own
// goroutines or run one after another, so each gets one internal worker.
// A panic becomes the member's error, so one malformed-instance crash
// does not end the race.
func runMember(ctx context.Context, p Problem, idx int, sol *registry.Solver, doRefine bool) (c candidate) {
	c.idx = idx
	defer func() {
		if pv := recover(); pv != nil {
			c = candidate{idx: idx, err: fmt.Errorf("solve: %s panicked: %v", sol.Name, pv)}
		}
	}()
	a, err := sol.SolveInstance(ctx, p.instance(), exact.Options{Workers: 1})
	// An exact member that runs out of budget still hands back its
	// incumbent, and a race judges schedules, not proofs: keep it.
	if err != nil && (a == nil || !registry.IncumbentError(err)) {
		c.err = fmt.Errorf("solve: %s: %w", sol.Name, err)
		return c
	}
	if doRefine && p.Class() == registry.MultiProc {
		a = []int32(refine.RefineCtx(ctx, p.h, core.HyperAssignment(a), refine.Options{}).Assignment)
	}
	_, loads := p.MakespanLoads(a)
	c.a, c.vec = a, loadvec.SortedDesc(loads)
	return c
}

// vecMakespan is the makespan of a descending load vector.
func vecMakespan(vec []int64) int64 {
	if len(vec) == 0 {
		return 0
	}
	return vec[0]
}
