// Package batch solves many instances at once on a worker pool — the
// sharding/batching layer that turns the per-instance solvers into a
// throughput-oriented subsystem. Since the unified solve API landed, the
// batch is class-generic: a work item is a solve.Problem (SINGLEPROC
// bipartite or MULTIPROC hypergraph, freely mixed in one batch), and each
// one runs the solve package's auto policy:
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
// in deterministic rounds. The worker count sets each solve's share of
// the cores, and a solve with one core runs the sequential search instead
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

// Options configures a batch run.
type Options struct {
	// Workers bounds the pool; 0 means GOMAXPROCS.
	Workers int
	// InstanceTimeout is a per-instance deadline layered under the batch
	// context; 0 means none. When it expires the instance keeps the best
	// schedule found so far.
	InstanceTimeout time.Duration
	// Algorithms restricts the heuristic-race stage; nil means the
	// class's full default lineup. Names resolve in each problem class
	// present in the batch, so a mixed batch needs names valid in both.
	Algorithms []string
	// Refine post-processes every hypergraph candidate with local search.
	Refine bool
	// ExactTaskLimit is the largest instance that also gets an exact
	// branch-and-bound attempt; 0 means solve.DefaultExactTaskLimit,
	// negative disables the exact stage entirely.
	ExactTaskLimit int
	// ExactNodes is the branch-and-bound node budget; 0 means
	// solve.DefaultExactNodes.
	ExactNodes int64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Outcome is the per-problem result of RunProblems: the unified solve
// Report, or this problem's failure. Exactly one of the two is nil —
// except when the auto policy's exact stage failed unexpectedly, in which
// case the heuristic-stage Report accompanies the error.
type Outcome struct {
	Report *solve.Report
	Err    error
	// Elapsed is the wall-clock time spent on this problem, set even
	// when the solve failed (Report.Elapsed covers successes only).
	Elapsed time.Duration
}

// Runner is a reusable batch solver.
type Runner struct {
	opts Options
}

// New returns a Runner with the given options.
func New(opts Options) *Runner { return &Runner{opts: opts} }

// solveWorkers budgets each solve's internal parallelism (its heuristic
// race and exact stage) so the batch as a whole stays at roughly
// GOMAXPROCS goroutines: the pool already owns workers() cores, so each
// in-flight solve gets the leftover share, at least 1. At 1 the exact
// stage runs the sequential search; from 2 up, the rounds.
func (r *Runner) solveWorkers() int {
	if w := runtime.GOMAXPROCS(0) / r.opts.workers(); w > 1 {
		return w
	}
	return 1
}

// validate fails fast on algorithm names that do not resolve in the
// class of some problem in the batch, so a bad Options value is an
// upfront error rather than N per-instance ones.
func (r *Runner) validate(problems []solve.Problem) error {
	if len(r.opts.Algorithms) == 0 {
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
		if _, _, err := registry.ResolveClass(c, r.opts.Algorithms, nil); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
	}
	return nil
}

// RunProblems solves every problem — SINGLEPROC and MULTIPROC freely
// mixed — and returns one Outcome per problem, in input order. A
// configuration error (an algorithm name unknown in some problem's class)
// fails the whole batch up front with nil results; per-problem failures
// land in the matching Outcome.Err. When ctx is cancelled mid-batch
// RunProblems returns promptly with the partial results alongside ctx's
// error: in-flight solvers stop at their next context poll (keeping their
// best schedule so far) and problems that never started carry a "not
// started" error.
func (r *Runner) RunProblems(ctx context.Context, problems []solve.Problem) ([]Outcome, error) {
	if err := r.validate(problems); err != nil {
		return nil, err
	}
	outs := make([]Outcome, len(problems))
	started := make([]bool, len(problems))
	err := ForEach(ctx, r.opts.workers(), len(problems), func(ctx context.Context, i int) error {
		started[i] = true
		outs[i] = r.solveOne(ctx, problems[i])
		return nil
	})
	for i := range outs {
		if !started[i] {
			outs[i] = Outcome{Err: fmt.Errorf("batch: not started: %w", ctx.Err())}
		}
	}
	return outs, err
}

// solveOne applies the per-instance policy (solve.RunOptions). It never
// lets a failure escape: panics and errors end up in the Outcome.
func (r *Runner) solveOne(ctx context.Context, p solve.Problem) (out Outcome) {
	start := time.Now()
	defer func() {
		if pv := recover(); pv != nil {
			out = Outcome{Err: fmt.Errorf("batch: panic solving instance: %v", pv)}
		}
		out.Elapsed = time.Since(start)
	}()
	rep, err := solve.RunOptions(ctx, p, solve.Options{
		Portfolio:      r.opts.Algorithms,
		Refine:         r.opts.Refine,
		Workers:        r.solveWorkers(),
		NodeBudget:     r.opts.ExactNodes,
		ExactTaskLimit: r.opts.ExactTaskLimit,
		Deadline:       r.opts.InstanceTimeout,
	})
	return Outcome{Report: rep, Err: err}
}

// ForEach runs fn(ctx, i) for every index in [0, n) on a pool of workers —
// the sharding primitive under Runner, exported for other fan-out loops
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
