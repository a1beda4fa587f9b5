// Package exact provides exact (exponential-time) solvers for small
// instances of the NP-complete problems in the paper: weighted SINGLEPROC,
// MULTIPROC (weighted or unit), and Exact Cover by 3-Sets. They serve as
// ground truth for validating the heuristics and the Theorem 1 reduction,
// and as the optimum column in small-instance experiments.
//
// Both solvers (one per problem class, each sequential or parallel) run on
// one flat-core branch-and-bound kernel behind one driver. A SINGLEPROC
// graph is solved as its singleton-hyperedge MULTIPROC form
// (hypergraph.FromGraph), with schedules translated back to task →
// processor. The instance is compiled once into CSR index/offset arrays
// with bitset pin sets (internal/exact/flatcore), and the node loop walks
// those flat arrays with zero per-node heap allocation. The engine prunes
// with a bound hierarchy — per node the incumbent, average-load,
// max-element, and min-load bounds (integer arithmetic only); at the root
// and at subproblem expansions the strong bin-packing and
// matching/max-flow bounds from internal/lb — plus processor-symmetry
// dedup and task-dominance rules compiled into the flat shape. Searches
// are exact whenever they return without ErrLimit; instances beyond ~30
// tasks should use the heuristics and the LowerBound instead.
package exact

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"semimatch/internal/adversarial"
	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/exact/flatcore"
	"semimatch/internal/hypergraph"
	"semimatch/internal/telemetry"
)

// ErrLimit reports that the node budget was exhausted before the search
// completed; the result would not be provably optimal.
var ErrLimit = errors.New("exact: node limit exceeded")

// ErrCancelled reports that the context was cancelled (or its deadline
// expired) mid-search. As with ErrLimit, the solver still returns its
// incumbent — the best schedule found so far — which is valid but not
// provably optimal. Errors returned on cancellation match both
// errors.Is(err, ErrCancelled) and errors.Is(err, ctx.Err()).
var ErrCancelled = errors.New("exact: cancelled")

// Options bounds the search.
type Options struct {
	// MaxNodes caps the number of search-tree nodes. 0 means the default
	// (20 million), which solves typical 25-task instances in well under a
	// second. A parallel search shares the budget across all workers.
	MaxNodes int64
	// Workers selects the engine: 1 runs the sequential DFS, any other
	// value the deterministic rounds search with that many workers (0
	// means GOMAXPROCS). The worker count changes only the wall time of a
	// rounds search, never its result or node count.
	Workers int
	// InitialIncumbent, when non-nil, warm-starts the search with a known
	// feasible schedule in the instance's own encoding (task → processor
	// for SINGLEPROC, task → hyperedge id for MULTIPROC). The engine
	// validates it against the instance and adopts it as the starting
	// incumbent when its makespan beats the built-in greedy seed; an
	// invalid or non-improving warm start is silently ignored. A warm
	// start never changes the optimum returned — only how much of the
	// tree gets explored: a strictly tighter initial bound prunes a
	// superset of what the greedy bound prunes, so a sequential
	// warm-started search expands at most as many nodes as a cold one.
	InitialIncumbent []int32
	// Stats, when non-nil, receives search statistics (nodes expanded,
	// workers used, ...) when the solve returns.
	Stats *SearchStats
	// Observer, when non-nil, receives the search's incumbent trajectory:
	// the initial greedy schedule, then every improvement, then the final
	// best — each call gets the makespan and a private copy of the
	// assignment. Observations are delivered at the search's checkpoints
	// (never per node): every few thousand nodes of a sequential search,
	// and at each round barrier of a parallel one. Makespans are strictly
	// decreasing after the first call. Calls come from the solving
	// goroutine, one at a time; the callback must not block for long and
	// must not panic (wrap it if it may).
	Observer func(makespan int64, assignment []int32)
	// Trace, when non-nil, receives the solve's phase spans as children:
	// "compile" (with a "root-bounds" child covering the packing/matching
	// bound computation), "greedy" (the initial incumbent), and "search"
	// with attributes nodes, incumbent_entry/incumbent_exit, bound,
	// complete and workers. Spans are created per phase, never per node.
	Trace *telemetry.Span
	// Progress, when non-nil, receives periodic SearchProgress snapshots
	// during the search, polled at the same checkpoints as Observer (never
	// per node) and rate-limited by ProgressInterval, so node counts are
	// identical with and without the hook. One final snapshot is
	// delivered when the search ends. Calls come one at a time; the
	// callback must return quickly and must not panic.
	Progress telemetry.ProgressFunc
	// ProgressInterval is the minimum wall time between Progress
	// snapshots; 0 means telemetry.DefaultProgressInterval.
	ProgressInterval time.Duration
}

// SearchStats reports how much work a branch-and-bound search did — the
// raw material of the repo's recorded perf trajectory (BENCH.json).
type SearchStats struct {
	// Nodes is the number of search-tree nodes expanded (all workers).
	Nodes int64
	// Workers is the number of workers the search ran with (1 for the
	// sequential DFS).
	Workers int
	// Bound is the strongest instance-level lower bound the search derived
	// at the root: the max of the average-load, max-element, bin-packing,
	// and matching bounds. Valid whether or not the search completed.
	Bound int64
}

// compileSpan wraps one compile phase for tracing (all nil-safe): a
// "compile" child of tr whose own "root-bounds" child carries the time
// spent in the packing/matching bound computation, measured inside the
// compiler (boundsWall).
func compileSpan(tr *telemetry.Span, start time.Time, boundsWall time.Duration) {
	cs := tr.AddChild("compile", start, time.Since(start))
	cs.AddChild("root-bounds", time.Now().Add(-boundsWall), boundsWall)
}

// startSearchSpan opens the "search" child span with its entry
// attributes: the incumbent the search starts from and the root bound.
func startSearchSpan(tr *telemetry.Span, sr *search) *telemetry.Span {
	ss := tr.StartChild("search")
	ss.SetAttr("incumbent_entry", sr.bestM)
	ss.SetAttr("bound", sr.rootLB)
	return ss
}

// finishSearch records a finished search exactly once — filling
// Options.Stats (when requested) and closing the "search" span with its
// exit attributes. Called after the search has stopped.
func finishSearch(opts Options, ss *telemetry.Span, sr *search) {
	complete := sr.closed || (!sr.exhausted && !sr.cancelled.Load())
	stats := SearchStats{Nodes: sr.nodes, Workers: sr.workers, Bound: sr.rootLB}
	if opts.Stats != nil {
		*opts.Stats = stats
	}
	ss.SetAttr("nodes", stats.Nodes)
	ss.SetAttr("incumbent_exit", sr.bestM)
	ss.SetAttr("bound", stats.Bound)
	ss.SetAttr("complete", complete)
	ss.SetAttr("workers", sr.workers)
	ss.End()
}

func (o Options) maxNodes() int64 {
	if o.MaxNodes <= 0 {
		return 20_000_000
	}
	return o.MaxNodes
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// seed picks the incumbent a search starts from: the greedy schedule, or
// Options.InitialIncumbent when it validates against the instance and
// carries a strictly better makespan. The returned bool reports whether
// the warm start was adopted.
func (o Options) seed(h *hypergraph.Hypergraph, inc core.HyperAssignment, m0 int64) (core.HyperAssignment, int64, bool) {
	w := core.HyperAssignment(o.InitialIncumbent)
	if w == nil || core.ValidateHyperAssignment(h, w) != nil {
		return inc, m0, false
	}
	mw := core.HyperMakespan(h, w)
	if mw >= m0 {
		return inc, m0, false
	}
	return w, mw, true
}

// SolveSingleProc computes an optimal SINGLEPROC schedule (weighted or
// unit) by branch and bound. Tasks with empty eligibility sets yield an
// error.
//
// opts.Workers selects the engine. Workers == 1 runs one uninterrupted
// sequential DFS. Any other value splits the search tree at a shallow
// frontier and advances the subproblems in deterministic rounds on that
// many workers (0 means GOMAXPROCS). Both engines are deterministic: the
// schedule, makespan and node count depend only on the instance, the
// engine and the node budget, unless ctx ends the search first. The two
// engines can return different optimal schedules when several exist,
// with different node counts.
//
// The search polls ctx alongside the MaxNodes budget. On budget
// exhaustion or cancellation it returns the incumbent (the best schedule
// found so far) with an error wrapping ErrLimit, or ErrCancelled and
// ctx.Err().
//
// The instance is solved in singleton form (hypergraph.FromGraph).
// Hyperedge k is g's edge k, so warm starts, observations and the result
// translate between the processor and edge encodings through g's rows,
// and callers only ever see task → processor assignments.
func SolveSingleProc(ctx context.Context, g *bipartite.Graph, opts Options) (core.Assignment, int64, error) {
	opts.InitialIncumbent = hypergraph.EdgesOf(g, opts.InitialIncumbent)
	if obs := opts.Observer; obs != nil {
		opts.Observer = func(m int64, a []int32) { obs(m, hypergraph.ProcsOf(g, a)) }
	}
	a, m, err := solve(ctx, hypergraph.FromGraph(g), opts)
	return hypergraph.ProcsOf(g, a), m, err
}

// SolveMultiProc computes an optimal MULTIPROC schedule by branch and
// bound; see SolveSingleProc for the engine choice and error contract.
func SolveMultiProc(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (core.HyperAssignment, int64, error) {
	return solve(ctx, h, opts)
}

// solve is the one branch-and-bound driver behind both entry points.
// It compiles h, seeds the incumbent (greedy, or a better warm start),
// closes at the root when the incumbent meets the strongest root bound,
// and otherwise searches: one uninterrupted DFS when opts.Workers is 1,
// deterministic rounds over a shallow frontier otherwise.
func solve(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (core.HyperAssignment, int64, error) {
	n, p, workers := h.NTasks, h.NProcs, opts.workers()
	if n == 0 {
		return core.HyperAssignment{}, 0, nil
	}
	if p == 0 {
		return nil, 0, fmt.Errorf("exact: no processors")
	}
	for t := 0; t < n; t++ {
		if h.TaskDegree(t) == 0 {
			return nil, 0, fmt.Errorf("exact: task %d has no configuration", t)
		}
	}

	compileStart := time.Now()
	pr := flatcore.CompileMP(h)
	compileSpan(opts.Trace, compileStart, pr.BoundsWall)
	gs := opts.Trace.StartChild("greedy")
	inc := core.SortedGreedyHyp(h, core.HyperOptions{})
	m0 := core.HyperMakespan(h, inc)
	gs.SetAttr("makespan", m0)
	var warm bool
	if inc, m0, warm = opts.seed(h, inc, m0); warm {
		gs.SetAttr("warm_start", m0)
	}
	gs.End()
	sr := newSearch(inc, m0, pr.Bounds.Root(), opts.maxNodes(), workers)
	sr.obsFn = opts.Observer
	sr.setProgress(opts.Progress, opts.ProgressInterval)
	sr.observe() // the initial greedy incumbent
	ss := startSearchSpan(opts.Trace, sr)
	if !sr.closed {
		release := watchCancel(ctx, sr)
		if workers == 1 {
			// One worker gains nothing from frontier splitting: it runs one
			// uninterrupted DFS, so a warm start prunes a superset of what
			// the cold search prunes.
			sr.dfs(pr)
		} else {
			sr.parallel(pr)
		}
		release()
	}
	sr.observe() // flush the final incumbent to the observer
	sr.emitProgress()
	finishSearch(opts, ss, sr)
	return sr.bestA, sr.bestM, sr.err(ctx)
}

// SolveX3C decides Exact Cover by 3-Sets by depth-first search over the
// lowest-indexed uncovered element. It returns the indices of a cover and
// true, or nil and false.
func SolveX3C(x adversarial.X3C) ([]int, bool) {
	if x.Validate() != nil {
		return nil, false
	}
	nElem := 3 * x.Q
	// setsWith[e] = sets containing element e.
	setsWith := make([][]int, nElem)
	for i, s := range x.Sets {
		for _, e := range s {
			setsWith[e] = append(setsWith[e], i)
		}
	}
	covered := make([]bool, nElem)
	var chosen []int
	var rec func(covCount int) bool
	rec = func(covCount int) bool {
		if covCount == nElem {
			return true
		}
		// First uncovered element.
		e := 0
		for covered[e] {
			e++
		}
		for _, si := range setsWith[e] {
			s := x.Sets[si]
			if covered[s[0]] || covered[s[1]] || covered[s[2]] {
				continue
			}
			covered[s[0]], covered[s[1]], covered[s[2]] = true, true, true
			chosen = append(chosen, si)
			if rec(covCount + 3) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
			covered[s[0]], covered[s[1]], covered[s[2]] = false, false, false
		}
		return false
	}
	if rec(0) {
		return chosen, true
	}
	return nil, false
}
