package registry

import (
	"context"
	"errors"
	"fmt"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
	"semimatch/internal/online"
)

// The catalog. Registration order is meaningful: it is the listing order,
// the default portfolio order (deterministic tie-break) and the benchmark
// tables' column order, so the paper's fixed orders — basic/sorted/double/
// expected and SGH/VGH/EGH/EVG — come first in their class.
func init() {
	// --- SINGLEPROC (bipartite) ---
	register(&Solver{
		Name: "basic", Class: SingleProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"basic-greedy"},
		Summary: "greedy, tasks in index order, least-loaded eligible processor",
		SolveSingle: func(_ context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			return core.BasicGreedy(g), nil
		},
	})
	register(&Solver{
		Name: "sorted", Class: SingleProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"sorted-greedy"},
		Summary: "greedy, most-constrained tasks first (Sec. IV-B)",
		SolveSingle: func(_ context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			return core.SortedGreedy(g), nil
		},
	})
	register(&Solver{
		Name: "double", Class: SingleProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"double-sorted"},
		Summary: "greedy with processor-side tie-breaking (Sec. IV-B)",
		SolveSingle: func(_ context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			return core.DoubleSorted(g), nil
		},
	})
	register(&Solver{
		Name: "expected", Class: SingleProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"expected-greedy"},
		Summary: "greedy on expected loads (Sec. IV-B)",
		SolveSingle: func(_ context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			return core.ExpectedGreedy(g), nil
		},
	})
	register(&Solver{
		Name: "LPT", Class: SingleProc, Kind: Heuristic, Cost: CostNearLinear, Aux: true,
		Aliases: []string{"lpt-greedy"},
		Summary: "longest-processing-time-first baseline for weighted instances",
		SolveSingle: func(_ context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			return core.LPTGreedy(g), nil
		},
	})
	register(&Solver{
		Name: "ExactUnit", Class: SingleProc, Kind: Exact, Cost: CostPolynomial,
		Aliases: []string{"exact", "exact-unit"},
		Summary: "optimal SINGLEPROC-UNIT via deadline search over matchings (Sec. IV-A)",
		SolveSingle: func(ctx context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			a, _, err := core.ExactUnit(ctx, g)
			if err != nil && errors.Is(err, ctx.Err()) {
				// Stopped before its last probe: a is the best feasible
				// assignment found so far, an incumbent like the
				// branch and bound's.
				err = fmt.Errorf("%w: %w", exact.ErrCancelled, err)
			}
			return a, err
		},
	})
	register(&Solver{
		Name: "Harvey", Class: SingleProc, Kind: Exact, Cost: CostPolynomial,
		Aliases: []string{"harvey-optimal"},
		Summary: "optimal SINGLEPROC-UNIT via cost-reducing paths (Harvey et al.)",
		SolveSingle: func(_ context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			return core.HarveyOptimal(g)
		},
	})
	register(&Solver{
		Name: "BnB-SP", Class: SingleProc, Kind: Exact, Cost: CostExponential,
		Aliases: []string{"bnb"},
		Summary: "branch-and-bound for weighted SINGLEPROC (budgeted; returns incumbent on timeout)",
		SolveSingle: func(ctx context.Context, g *bipartite.Graph, opts exact.Options) (core.Assignment, error) {
			opts.Workers = 1
			a, _, err := exact.SolveSingleProc(ctx, g, opts)
			return a, err
		},
	})
	register(&Solver{
		Name: "BnB-SP-Par", Class: SingleProc, Kind: Exact, Cost: CostExponential, Parallel: true,
		Aliases: []string{"bnb-par"},
		Summary: "parallel branch-and-bound for weighted SINGLEPROC (Workers≈GOMAXPROCS; deterministic rounds, symmetry breaking)",
		SolveSingle: func(ctx context.Context, g *bipartite.Graph, opts exact.Options) (core.Assignment, error) {
			a, _, err := exact.SolveSingleProc(ctx, g, opts)
			return a, err
		},
	})
	register(&Solver{
		Name: "OnlineGreedy", Class: SingleProc, Kind: Online, Cost: CostNearLinear,
		Aliases: []string{"online", "online-greedy"},
		Summary: "online least-loaded-eligible assignment in arrival order (Lee, Leung & Pinedo [18])",
		SolveSingle: func(_ context.Context, g *bipartite.Graph, _ exact.Options) (core.Assignment, error) {
			a, _, err := online.Replay(g, nil)
			return a, err
		},
	})

	// --- MULTIPROC (hypergraph) ---
	register(&Solver{
		Name: "SGH", Class: MultiProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"sorted-greedy-hyp"},
		Summary: "sorted greedy over configurations (Algorithm 4)",
		SolveHyper: func(_ context.Context, h *hypergraph.Hypergraph, _ exact.Options) (core.HyperAssignment, error) {
			return core.SortedGreedyHyp(h), nil
		},
	})
	register(&Solver{
		Name: "VGH", Class: MultiProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"vector-greedy-hyp"},
		Summary: "load-vector greedy (Sec. IV-D3)",
		SolveHyper: func(_ context.Context, h *hypergraph.Hypergraph, _ exact.Options) (core.HyperAssignment, error) {
			return core.VectorGreedyHyp(h), nil
		},
	})
	register(&Solver{
		Name: "EGH", Class: MultiProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"expected-greedy-hyp"},
		Summary: "expected-load greedy (Algorithm 5)",
		SolveHyper: func(_ context.Context, h *hypergraph.Hypergraph, _ exact.Options) (core.HyperAssignment, error) {
			return core.ExpectedGreedyHyp(h), nil
		},
	})
	register(&Solver{
		Name: "EVG", Class: MultiProc, Kind: Heuristic, Cost: CostNearLinear,
		Aliases: []string{"expected-vector-greedy"},
		Summary: "expected-load vector greedy (Sec. IV-D4), the paper's best on weighted instances",
		SolveHyper: func(_ context.Context, h *hypergraph.Hypergraph, _ exact.Options) (core.HyperAssignment, error) {
			return core.ExpectedVectorGreedyHyp(h), nil
		},
	})
	register(&Solver{
		Name: "EGH-X", Class: MultiProc, Kind: Heuristic, Cost: CostNearLinear, Aux: true,
		Aliases: []string{"egh-exact"},
		Summary: "EGH with scaled-integer expected loads (float tie-sensitivity ablation)",
		SolveHyper: func(_ context.Context, h *hypergraph.Hypergraph, _ exact.Options) (core.HyperAssignment, error) {
			return core.ExpectedGreedyHypExact(h)
		},
	})
	register(&Solver{
		Name: "EVG-X", Class: MultiProc, Kind: Heuristic, Cost: CostNearLinear, Aux: true,
		Aliases: []string{"evg-exact"},
		Summary: "EVG with scaled-integer expected loads (float tie-sensitivity ablation)",
		SolveHyper: func(_ context.Context, h *hypergraph.Hypergraph, _ exact.Options) (core.HyperAssignment, error) {
			return core.ExpectedVectorGreedyHypExact(h)
		},
	})
	register(&Solver{
		Name: "BnB-MP", Class: MultiProc, Kind: Exact, Cost: CostExponential,
		Aliases: []string{"bnb", "exact"},
		Summary: "branch-and-bound for MULTIPROC (budgeted; returns incumbent on timeout)",
		SolveHyper: func(ctx context.Context, h *hypergraph.Hypergraph, opts exact.Options) (core.HyperAssignment, error) {
			opts.Workers = 1
			a, _, err := exact.SolveMultiProc(ctx, h, opts)
			return a, err
		},
	})
	register(&Solver{
		Name: "BnB-MP-Par", Class: MultiProc, Kind: Exact, Cost: CostExponential, Parallel: true,
		Aliases: []string{"bnb-par", "exact-par"},
		Summary: "parallel branch-and-bound for MULTIPROC (Workers≈GOMAXPROCS; deterministic rounds, symmetry breaking)",
		SolveHyper: func(ctx context.Context, h *hypergraph.Hypergraph, opts exact.Options) (core.HyperAssignment, error) {
			a, _, err := exact.SolveMultiProc(ctx, h, opts)
			return a, err
		},
	})
}
