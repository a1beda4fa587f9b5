// Package exact provides exact (exponential-time) solvers for small
// instances of the NP-complete problems in the paper: weighted SINGLEPROC,
// MULTIPROC (weighted or unit), and Exact Cover by 3-Sets. They serve as
// ground truth for validating the heuristics and the Theorem 1 reduction,
// and as the optimum column in small-instance experiments.
//
// All four solvers (sequential and parallel, both problem classes) run on
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
	"semimatch/internal/cert"
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
	// second. For the parallel solvers the budget is shared across all
	// workers.
	MaxNodes int64
	// Workers bounds the parallel solvers' worker pool; 0 means
	// GOMAXPROCS. The sequential solvers ignore it.
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
	// assignment. Observations are polled at the existing budget and
	// cancellation checkpoints (never per node), so makespans are strictly
	// decreasing after the first call and an improvement is reported at
	// most one checkpoint interval after a worker finds it. The parallel
	// solvers serialize calls across workers; the callback must not block
	// for long and must not panic (wrap it if it may).
	Observer func(makespan int64, assignment []int32)
	// Trace, when non-nil, receives the solve's phase spans as children:
	// "compile" (with a "root-bounds" child covering the packing/matching
	// bound computation), "greedy" (the initial incumbent), and "search"
	// with attributes nodes, incumbent_entry/incumbent_exit, bound,
	// witness, workers, and — parallel — steals and subproblems. Spans
	// are created per phase, never per node.
	Trace *telemetry.Span
	// Progress, when non-nil, receives periodic SearchProgress snapshots
	// during the search, polled at the same budget-block checkpoints as
	// Observer (never per node) and rate-limited by ProgressInterval, so
	// node counts are identical with and without the hook. One final
	// snapshot is delivered when the search ends. Calls are serialized;
	// the callback must return quickly and must not panic.
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
	// Workers is the worker-pool size the search ran with (1 for the
	// sequential solvers).
	Workers int
	// Subproblems counts independent subproblems executed by the
	// work-stealing pool: the shallow-frontier split plus any re-splits of
	// stolen work. Zero for the sequential solvers, and zero for any solve
	// closed at the root by a bound before the pool spun up.
	Subproblems int64
	// Steals counts subproblems a worker took from another worker's deque.
	// Zero for the sequential solvers.
	Steals int64
	// Bound is the strongest instance-level lower bound the search derived
	// at the root: the max of the average-load, max-element, bin-packing,
	// and matching bounds. Valid whether or not the search completed.
	Bound int64
	// Witness names the optimality argument for the returned schedule: the
	// cheapest root bound that equals the makespan (average-load,
	// max-element, packing, matching), WitnessExhaustive when the tree was
	// searched to completion without a bound meeting the makespan, or
	// WitnessNone when the search was truncated (budget or cancellation).
	Witness cert.WitnessKind
}

// witnessFor grades a finished search: bound is the strongest root lower
// bound, and the witness is the cheapest argument that proves the returned
// makespan optimal — a root bound that equals it (cheapest to re-derive
// first), else exhaustion (only if the tree was fully searched).
func witnessFor(complete bool, b flatcore.Bounds, makespan int64) (int64, cert.WitnessKind) {
	bound := b.Root()
	switch {
	case !complete:
		return bound, cert.WitnessNone
	case makespan == b.Avg:
		return bound, cert.WitnessAverageLoad
	case makespan == b.MaxElem:
		return bound, cert.WitnessMaxElement
	case makespan == b.Pack:
		return bound, cert.WitnessPacking
	case b.Match > 0 && makespan == b.Match:
		return bound, cert.WitnessMatching
	default:
		return bound, cert.WitnessExhaustive
	}
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
func startSearchSpan(tr *telemetry.Span, sh *parShared) *telemetry.Span {
	ss := tr.StartChild("search")
	ss.SetAttr("incumbent_entry", sh.bestM)
	ss.SetAttr("bound", sh.rootLB)
	return ss
}

// finishSearch grades a finished search exactly once — filling
// Options.Stats (when requested) and closing the "search" span with its
// exit attributes. Called after all workers quiesce.
func finishSearch(opts Options, ss *telemetry.Span, sh *parShared, b flatcore.Bounds, workers int, subproblems int64) {
	complete := sh.closed.Load() || (!sh.exhausted.Load() && !sh.cancelled.Load())
	bound, wit := witnessFor(complete, b, sh.bestM)
	stats := SearchStats{
		Nodes:       sh.nodes.Load(),
		Workers:     workers,
		Subproblems: subproblems,
		Steals:      sh.steals.Load(),
		Bound:       bound,
		Witness:     wit,
	}
	if opts.Stats != nil {
		*opts.Stats = stats
	}
	ss.SetAttr("nodes", stats.Nodes)
	ss.SetAttr("incumbent_exit", sh.bestM)
	ss.SetAttr("bound", bound)
	ss.SetAttr("witness", wit.String())
	ss.SetAttr("workers", workers)
	if workers > 1 {
		ss.SetAttr("subproblems", stats.Subproblems)
		ss.SetAttr("steals", stats.Steals)
	}
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

// seqChunk is the chunk limit handed to the flat-core state machine when it
// runs single-threaded: effectively unbounded, so a sequential solve is one
// uninterrupted DFS with no suspension or requeueing.
const seqChunk = int64(1) << 62

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
func SolveSingleProc(g *bipartite.Graph, opts Options) (core.Assignment, int64, error) {
	return SolveSingleProcCtx(context.Background(), g, opts)
}

// SolveSingleProcCtx is SolveSingleProc with cooperative cancellation: the
// search polls ctx alongside the MaxNodes budget and, when ctx is
// cancelled, returns the incumbent with an error wrapping ErrCancelled and
// ctx.Err().
//
// The sequential solver is the parallel engine run single-threaded: same
// compiled flat shape, same bound hierarchy and prunes, one worker, no
// pool. Node counts are therefore deterministic.
func SolveSingleProcCtx(ctx context.Context, g *bipartite.Graph, opts Options) (core.Assignment, int64, error) {
	return solveSingle(ctx, g, opts, 1)
}

// SolveSingleProcPar is SolveSingleProc on the parallel work-stealing
// branch-and-bound engine.
func SolveSingleProcPar(g *bipartite.Graph, opts Options) (core.Assignment, int64, error) {
	return SolveSingleProcParCtx(context.Background(), g, opts)
}

// SolveSingleProcParCtx computes an optimal SINGLEPROC schedule on the
// parallel engine: the search tree is split at a shallow frontier across
// Options.Workers work-stealing workers sharing one incumbent bound and
// one node budget. The error contract matches SolveSingleProcCtx: on
// budget exhaustion or cancellation the best incumbent found by any worker
// is returned alongside ErrLimit / ErrCancelled. The optimal makespan is
// deterministic; which optimal schedule is returned may vary across runs
// when several exist.
func SolveSingleProcParCtx(ctx context.Context, g *bipartite.Graph, opts Options) (core.Assignment, int64, error) {
	return solveSingle(ctx, g, opts, opts.workers())
}

// SolveMultiProc computes an optimal MULTIPROC schedule by branch and
// bound.
func SolveMultiProc(h *hypergraph.Hypergraph, opts Options) (core.HyperAssignment, int64, error) {
	return SolveMultiProcCtx(context.Background(), h, opts)
}

// SolveMultiProcCtx is SolveMultiProc with cooperative cancellation; see
// SolveSingleProcCtx for the engine and error contract.
func SolveMultiProcCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (core.HyperAssignment, int64, error) {
	return solve(ctx, h, opts, 1)
}

// SolveMultiProcPar is SolveMultiProc on the parallel work-stealing
// branch-and-bound engine.
func SolveMultiProcPar(h *hypergraph.Hypergraph, opts Options) (core.HyperAssignment, int64, error) {
	return SolveMultiProcParCtx(context.Background(), h, opts)
}

// SolveMultiProcParCtx computes an optimal MULTIPROC schedule on the
// parallel engine; see SolveSingleProcParCtx for the concurrency and
// error contract.
func SolveMultiProcParCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (core.HyperAssignment, int64, error) {
	return solve(ctx, h, opts, opts.workers())
}

// solveSingle runs a SINGLEPROC instance through solve in singleton form
// (hypergraph.FromGraph). Hyperedge k is g's edge k, so warm starts,
// observations and the result translate between the processor and edge
// encodings through g's rows, and callers only ever see task → processor
// assignments.
func solveSingle(ctx context.Context, g *bipartite.Graph, opts Options, workers int) (core.Assignment, int64, error) {
	n, p := g.NLeft, g.NRight
	if p == 0 && n > 0 {
		return nil, 0, fmt.Errorf("exact: no processors")
	}
	for t := 0; t < n; t++ {
		if g.Degree(t) == 0 {
			return nil, 0, fmt.Errorf("exact: task %d has no eligible processor", t)
		}
	}
	if n == 0 {
		return core.Assignment{}, 0, nil
	}
	opts.InitialIncumbent = edgesOf(g, opts.InitialIncumbent)
	if obs := opts.Observer; obs != nil {
		opts.Observer = func(m int64, a []int32) { obs(m, procsOf(g, a)) }
	}
	a, m, err := solve(ctx, hypergraph.FromGraph(g), opts, workers)
	return procsOf(g, a), m, err
}

// edgesOf translates a task → processor schedule of g into the edge
// encoding of FromGraph(g). A schedule that is invalid for g translates
// to nil, which solve ignores like any invalid warm start.
func edgesOf(g *bipartite.Graph, a []int32) []int32 {
	if a == nil || core.ValidateAssignment(g, a) != nil {
		return nil
	}
	edges := make([]int32, len(a))
	for t, proc := range a {
		for e := g.Ptr[t]; e < g.Ptr[t+1]; e++ {
			if g.Adj[e] == proc {
				edges[t] = e
				break
			}
		}
	}
	return edges
}

// procsOf rewrites an edge-encoded schedule of FromGraph(g) in place into
// g's task → processor encoding.
func procsOf(g *bipartite.Graph, a []int32) core.Assignment {
	for t, e := range a {
		a[t] = g.Adj[e]
	}
	return core.Assignment(a)
}

// solve is the one branch-and-bound driver behind all four entry points.
// It compiles h, seeds the incumbent (greedy, or a better warm start),
// closes at the root when the incumbent meets the strongest root bound,
// and otherwise searches: one uninterrupted DFS when workers == 1, the
// work-stealing pool over a shallow frontier otherwise.
func solve(ctx context.Context, h *hypergraph.Hypergraph, opts Options, workers int) (core.HyperAssignment, int64, error) {
	n, p := h.NTasks, h.NProcs
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
	sh := newParShared(inc, m0, opts.maxNodes(), workers)
	sh.rootLB = pr.Bounds.Root()
	sh.obsFn = opts.Observer
	sh.setProgress(opts.Progress, opts.ProgressInterval)
	sh.closeIfOptimal()
	sh.observe() // the initial greedy incumbent
	ss := startSearchSpan(opts.Trace, sh)
	var frontier [][]int32
	if !sh.closed.Load() {
		release := watchCancel(ctx, sh)
		defer release()
		tk := &ticker{sh: sh}
		if workers == 1 {
			// One worker gains nothing from frontier splitting: it runs one
			// uninterrupted DFS, so node counts are deterministic and a
			// warm start prunes a superset of what the cold search prunes.
			s := newSearchState(pr, sh)
			s.chunkLimit = seqChunk
			s.run(nil, tk)
			tk.flush()
		} else {
			var fdepth int
			frontier, fdepth = genFrontier(newSearchState(pr, sh), tk, workers*splitFactor)
			tk.flush()
			if len(frontier) > 0 && !sh.stop.Load() {
				runPool(sh, pr, frontier, workers, fdepth)
			}
		}
		release()
	}
	sh.observe() // flush the final incumbent to the observer
	sh.progressFinal()
	finishSearch(opts, ss, sh, pr.Bounds, workers, int64(len(frontier))+sh.splits.Load())
	return append(core.HyperAssignment(nil), sh.bestA...), sh.bestM, sh.err(ctx)
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
