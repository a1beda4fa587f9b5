// Package batch solves many instances at once on a worker pool — the
// sharding/batching layer that turns the per-instance solvers into a
// throughput-oriented subsystem. A work item is a solve.Problem
// (SINGLEPROC bipartite or MULTIPROC hypergraph, freely mixed in one
// batch), and each one runs solve.RunOptions under the batch's options,
// by default the auto policy:
//
//  1. heuristic race first — the class's greedy lineup, raced on the
//     solve's share of the cores — which always produces a schedule
//     quickly;
//  2. exact second, when the instance allows it — ExactUnit for unit
//     bipartite instances, a budgeted branch-and-bound for small ones —
//     which either proves optimality or improves the incumbent;
//  3. fallback on timeout — every stage observes the context, so an
//     expiring per-instance or batch deadline degrades the answer (best
//     schedule found so far) instead of aborting it.
//
// Failures are isolated per instance: an empty problem, a panic, or a
// timeout in one work item is recorded in its Outcome and never poisons
// its siblings. Results do not depend on goroutine timing: for a fixed
// worker count the schedule repeats from run to run (deadlines excepted,
// by nature), because the exact stage's parallel branch and bound runs
// in deterministic rounds. The worker count is each solve's share of the
// cores, and a solve with one worker runs the sequential search instead
// of the rounds. Across worker counts the makespans therefore agree only
// while no exact stage stops at its node budget: the two searches stop in
// different places. Even then the schedules may differ among co-optimal
// ones.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"semimatch/internal/registry"
	"semimatch/internal/solve"
)

// Outcome is the per-problem result of Solve: the unified solve Report,
// or this problem's failure. Exactly one of the two is nil — except when
// the auto policy's exact stage failed unexpectedly, in which case the
// heuristic-stage Report accompanies the error.
type Outcome struct {
	Report *solve.Report
	Err    error
	// Elapsed is the wall-clock time spent on this problem, set even
	// when the solve failed (Report.Elapsed covers successes only).
	Elapsed time.Duration
}

// Solve solves every problem — SINGLEPROC and MULTIPROC freely mixed —
// with solve.RunOptions under o, and returns one Outcome per problem, in
// input order. o applies to each problem on its own: o.Deadline bounds
// each solve, o.NodeBudget each exact stage, and a warm start
// (o.InitialIncumbent) is ignored by every problem it does not fit.
//
// o.Workers is each solve's worker count. With none set each solve gets
// one worker and the pool runs GOMAXPROCS solves at once; with w set
// each solve gets w workers and the pool runs max(1, GOMAXPROCS/w).
// o.Observer and o.Progress are therefore called from concurrent solves:
// each solve's calls are serialized, but calls from different solves may
// overlap.
//
// A configuration error (o.Algorithm, or a name in o.Portfolio, unknown
// in some problem's class) fails the whole batch up front with nil
// results; per-problem failures land in the matching Outcome.Err. When
// ctx is cancelled mid-batch Solve returns promptly with the partial
// results alongside ctx's error: in-flight solvers stop at their next
// context poll (keeping their best schedule so far) and problems that
// never started carry a "not started" error.
func Solve(ctx context.Context, problems []solve.Problem, o solve.Options) ([]Outcome, error) {
	if err := validate(problems, o); err != nil {
		return nil, err
	}
	pool := runtime.GOMAXPROCS(0)
	if o.Workers > 0 {
		pool = max(1, pool/o.Workers)
	} else {
		o.Workers = 1
	}
	outs := make([]Outcome, len(problems))
	started := make([]bool, len(problems))
	err := ForEach(ctx, pool, len(problems), func(ctx context.Context, i int) error {
		started[i] = true
		outs[i] = solveOne(ctx, problems[i], o)
		return nil
	})
	for i := range outs {
		if !started[i] {
			outs[i] = Outcome{Err: fmt.Errorf("batch: not started: %w", ctx.Err())}
		}
	}
	return outs, err
}

// validate fails fast on an algorithm name that does not resolve in the
// class of some problem in the batch, so a bad option is one upfront
// error rather than N per-instance ones. o.Portfolio is checked only
// without o.Algorithm, which overrides it.
func validate(problems []solve.Problem, o solve.Options) error {
	if o.Algorithm == "" && len(o.Portfolio) == 0 {
		return nil
	}
	var checked [2]bool
	for _, p := range problems {
		if p.Validate() != nil {
			continue
		}
		c := p.Class()
		if checked[c] {
			continue
		}
		checked[c] = true
		var err error
		if o.Algorithm != "" {
			_, err = registry.LookupClass(c, o.Algorithm)
		} else {
			_, _, err = registry.ResolveClass(c, o.Portfolio)
		}
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
	}
	return nil
}

// solveOne solves one problem. It never lets a failure escape: panics
// and errors end up in the Outcome.
func solveOne(ctx context.Context, p solve.Problem, o solve.Options) (out Outcome) {
	start := time.Now()
	defer func() {
		if pv := recover(); pv != nil {
			out = Outcome{Err: fmt.Errorf("batch: panic solving instance: %v", pv)}
		}
		out.Elapsed = time.Since(start)
	}()
	rep, err := solve.RunOptions(ctx, p, o)
	return Outcome{Report: rep, Err: err}
}

// ForEach runs fn(ctx, i) for every index in [0, n) on a pool of workers —
// the sharding primitive under Solve, exported for other fan-out loops
// (the bench harness drives its experiment grids through it). It stops
// dispatching when ctx is cancelled or fn returns an error (in-flight
// calls get a context cancelled at that point) and returns the first
// error, or ctx's error when the context ended the run.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if cctx.Err() != nil {
					return
				}
				if err := fn(cctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-cctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
