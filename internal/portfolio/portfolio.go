// Package portfolio runs several MULTIPROC heuristics concurrently and
// returns the best schedule found. Since no single greedy dominates — the
// paper's evaluation shows VGH winning on unweighted FewgManyg instances
// but EVG on weighted ones, with ties on HiLo — a portfolio is the
// practical "just give me a good schedule" entry point, and the goroutine
// fan-out uses the cores a single greedy leaves idle.
//
// Optionally every candidate is post-processed with local search
// (refine.RefineCtx) before judging, which only ever improves results.
//
// SolveCtx races the members against a context: when the deadline expires
// the portfolio stops waiting and judges whichever candidates have
// finished, so callers get the best schedule computable within their time
// budget rather than an all-or-nothing answer.
//
// Member names resolve through the solver registry (internal/registry):
// any registered MULTIPROC solver — aliases included — can be drafted into
// the portfolio, and the default lineup is the registry's heuristic
// catalog.
package portfolio

import (
	"context"
	"fmt"
	"runtime"

	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
	"semimatch/internal/loadvec"
	"semimatch/internal/refine"
	"semimatch/internal/registry"
)

// Options configures a portfolio run.
type Options struct {
	// Algorithms restricts the portfolio; nil means the registry's default
	// MULTIPROC heuristic lineup. Names resolve through the solver
	// registry (aliases work); unknown names make SolveCtx return an error.
	Algorithms []string
	// Refine post-processes every candidate with local search.
	Refine bool
	// Workers bounds concurrency; 0 means GOMAXPROCS.
	Workers int
	// Observer, when non-nil, receives each member's completed candidate
	// (after refinement) as it arrives: the member's canonical name, its
	// makespan, and its assignment. Calls come from the collector
	// goroutine, one at a time, in completion order (nondeterministic);
	// the assignment is shared with the eventual Result — treat it as
	// read-only. The callback must not panic (wrap it if it may).
	Observer func(member string, makespan int64, a core.HyperAssignment)
}

// DefaultAlgorithms is the full default portfolio — the registry's
// MULTIPROC heuristic lineup — in deterministic tie-break order: when two
// members produce equally good schedules the earlier name wins, so results
// are reproducible regardless of goroutine timing.
var DefaultAlgorithms = registry.Names(registry.Heuristics(registry.MultiProc))

// Result is the winning schedule and the league table.
type Result struct {
	Assignment core.HyperAssignment
	Winner     string
	Makespan   int64
	// Makespans per portfolio member (after refinement if enabled). On a
	// deadline-bounded run only members that finished in time appear, so
	// len(Makespans) < len(algorithms) signals a truncated race.
	Makespans map[string]int64
	// Incomplete reports that the context ended the race before every
	// member reported; the result is the best of the members that did.
	Incomplete bool
	// MemberErrs records members that crashed (recovered panics) instead
	// of producing a candidate; nil when none did. A crashed member does
	// not make the result Incomplete.
	MemberErrs map[string]error
}

func run(ctx context.Context, sol *registry.Solver, h *hypergraph.Hypergraph, doRefine bool) (core.HyperAssignment, error) {
	// Members already race on their own goroutines, so a parallel member
	// gets one internal worker: the portfolio's concurrency budget is
	// spent across members, not inside one.
	a, err := sol.SolveHyper(ctx, h, registry.Options{BnB: exact.Options{Workers: 1}})
	if err != nil {
		// An exact member that runs out of budget still hands back its
		// incumbent — a valid schedule, just not provably optimal — and a
		// portfolio judges schedules, not proofs: keep it as a candidate.
		if a == nil || !registry.IncumbentError(err) {
			return nil, err
		}
	}
	if doRefine {
		a = refine.RefineCtx(ctx, h, a, refine.Options{}).Assignment
	}
	return a, nil
}

// resolve maps member names to registry solvers (canonical names out),
// erroring on the first unknown name. An empty list means the full
// default portfolio. Members with a registered parallel counterpart
// execute through it (registry.Preferred): a portfolio judges schedules,
// and the parallel variant finds the same optimal makespan with better
// wall-clock behaviour, so drafting "BnB-MP" runs the BnB-MP-Par engine
// under the hood. Reported names (Winner, Makespans keys) stay the
// drafted members' canonical names, so name-keyed callers are
// unaffected by the upgrade.
func resolve(algs []string) ([]string, []*registry.Solver, error) {
	names, solvers, err := registry.ResolveClass(registry.MultiProc, algs, DefaultAlgorithms)
	if err != nil {
		return nil, nil, fmt.Errorf("portfolio: %w", err)
	}
	for i, s := range solvers {
		solvers[i] = registry.Preferred(s)
	}
	return names, solvers, nil
}

// SolveCtx runs the portfolio on h and returns the best schedule. Ties are
// broken lexicographically by full descending load vector first (a
// schedule with the same makespan but better-balanced tail wins), then by
// portfolio order. Unknown algorithm names in opts yield an error.
//
// Members run concurrently and, if ctx is cancelled or its deadline
// expires before all of them finish, the best candidate finished so far
// is returned with Result.Incomplete set. Queued members never start
// after cancellation and the refinement stage observes ctx; a heuristic
// already in flight runs to completion in the background (the greedies
// themselves are not interruptible) but its result is simply discarded. Only when the context expires before any member has produced
// a candidate does SolveCtx give up and return ctx's error.
func SolveCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (Result, error) {
	algs, solvers, err := resolve(opts.Algorithms)
	if err != nil {
		return Result{}, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(algs) {
		workers = len(algs)
	}

	type cand struct {
		idx  int
		name string
		a    core.HyperAssignment
		vec  []int64
		m    int64
		err  error
	}
	ch := make(chan cand, len(algs))
	sem := make(chan struct{}, workers)
	for i, name := range algs {
		go func(i int, name string) {
			// Don't start work the caller has already given up on: a
			// queued member whose turn comes after cancellation bails out
			// (no send needed — the collector exits via ctx.Done).
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			// A malformed instance can blow up deep inside a heuristic;
			// contain it to this member so the others still race.
			defer func() {
				if p := recover(); p != nil {
					ch <- cand{idx: i, name: name, err: fmt.Errorf("portfolio: %s panicked: %v", name, p)}
				}
			}()
			a, err := run(ctx, solvers[i], h, opts.Refine)
			if err != nil {
				ch <- cand{idx: i, name: name, err: fmt.Errorf("portfolio: %s: %w", name, err)}
				return
			}
			vec := loadvec.SortedDesc(core.HyperLoads(h, a))
			m := int64(0)
			if len(vec) > 0 {
				m = vec[0]
			}
			ch <- cand{idx: i, name: name, a: a, vec: vec, m: m}
		}(i, name)
	}

	cands := make([]cand, 0, len(algs))
	var memberErrs map[string]error
	var firstErr error
	addErr := func(c cand) {
		if memberErrs == nil {
			memberErrs = make(map[string]error)
		}
		memberErrs[c.name] = c.err
		if firstErr == nil {
			firstErr = c.err
		}
	}
	accept := func(c cand) {
		if c.err != nil {
			addErr(c)
			return
		}
		cands = append(cands, c)
		if opts.Observer != nil {
			opts.Observer(c.name, c.m, c.a)
		}
	}
	received := 0
	done := ctx.Done()
collect:
	for received < len(algs) {
		select {
		case c := <-ch:
			received++
			accept(c)
		case <-done:
			// Deadline: drain whatever is already buffered, then judge.
			for {
				select {
				case c := <-ch:
					received++
					accept(c)
				default:
					break collect
				}
			}
		}
	}

	if len(cands) == 0 {
		if firstErr != nil {
			return Result{}, fmt.Errorf("portfolio: no member finished: %w", firstErr)
		}
		return Result{}, fmt.Errorf("portfolio: no member finished: %w", ctx.Err())
	}

	// Judge deterministically: best load vector, ties by portfolio order —
	// the arrival order of candidates must not matter.
	best := 0
	for i := 1; i < len(cands); i++ {
		c := loadvec.CompareVec(cands[i].vec, cands[best].vec)
		if c < 0 || (c == 0 && cands[i].idx < cands[best].idx) {
			best = i
		}
	}
	res := Result{
		Assignment: cands[best].a,
		Winner:     cands[best].name,
		Makespan:   cands[best].m,
		Makespans:  make(map[string]int64, len(cands)),
		// received counts crashed members too, so a crash alone (with no
		// context truncation) does not read as a timeout.
		Incomplete: received < len(algs),
		MemberErrs: memberErrs,
	}
	for _, c := range cands {
		res.Makespans[c.name] = c.m
	}
	return res, nil
}
