// Perf micro-grid: the repo's recorded performance trajectory.
//
// RunPerf runs a seeded grid of hard 25-task instances through the
// sequential and parallel branch-and-bound solvers and reports wall
// time, nodes expanded, nodes/sec and the parallel-over-sequential
// speedup, per case and aggregated per family. cmd/semibench's -bench
// mode writes the result as BENCH.json — the machine-readable format
// every future perf PR regresses against (see EXPERIMENTS.md for the
// recorded runs).
//
// The grid has two instance shapes per problem class:
//
//   - partition: identical-machines instances (every task eligible on
//     every processor at the same weight) — maximum processor symmetry
//     and bin-packing-hard, the engine's symmetry breaking shines;
//   - random: restricted random eligibility with weighted edges — the
//     repo's native instance shape at exact-solver scale.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
	"semimatch/internal/registry"
	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

// PerfFamily is one instance family of the perf grid.
type PerfFamily struct {
	Name  string
	Class registry.Class
	// Shape is "partition" (identical machines) or "random" (restricted
	// eligibility).
	Shape          string
	NTasks, NProcs int
	WMin, WMax     int64
	// Degree bounds configurations per task; MaxEdgeSize bounds pins per
	// hyperedge (random MULTIPROC only).
	Degree, MaxEdgeSize int
}

// DefaultPerfFamilies is the recorded grid: per class one
// partition-shaped and one random-shaped hard family, plus larger -xl
// families that mark the engine's current frontier.
var DefaultPerfFamilies = []PerfFamily{
	{Name: "mp-partition-hard", Class: registry.MultiProc, Shape: "partition", NTasks: 25, NProcs: 4, WMin: 20, WMax: 80},
	{Name: "mp-random-hard", Class: registry.MultiProc, Shape: "random", NTasks: 25, NProcs: 8, WMin: 1, WMax: 60, Degree: 5, MaxEdgeSize: 2},
	{Name: "sp-partition-hard", Class: registry.SingleProc, Shape: "partition", NTasks: 25, NProcs: 4, WMin: 20, WMax: 80},
	{Name: "sp-restricted-hard", Class: registry.SingleProc, Shape: "restricted", NTasks: 26, NProcs: 5, WMin: 20, WMax: 80, Degree: 4},
	// The -xl families are out of reach for the pre-flat-core sequential
	// engine (BENCH_3 and earlier): on mp-partition-xl it exhausts a
	// 100M-node budget on every seed, and on sp-restricted-xl/seed=2 it
	// exhausts the budget holding a suboptimal incumbent (389 vs the true
	// 386). The flat-core parallel engine closes every -xl case.
	{Name: "mp-partition-xl", Class: registry.MultiProc, Shape: "partition", NTasks: 32, NProcs: 5, WMin: 20, WMax: 80},
	{Name: "sp-restricted-xl", Class: registry.SingleProc, Shape: "restricted", NTasks: 48, NProcs: 6, WMin: 20, WMax: 80, Degree: 4},
}

// PerfOptions configures RunPerf.
type PerfOptions struct {
	// Workers is the parallel solvers' pool size; 0 means
	// max(4, GOMAXPROCS) — the speedup column is only meaningful with a
	// real pool.
	Workers int
	// Seeds is the number of instances per family; 0 means 5.
	Seeds int
	// MaxNodes is the per-solve node budget; 0 means 300 million (a few
	// seconds per sequential solve at worst).
	MaxNodes int64
	// Families overrides the grid; nil means DefaultPerfFamilies.
	Families []PerfFamily
	// Ledger, when non-nil, receives one solve-ledger record per measured
	// solve (source "bench") — the training data for instance-aware
	// algorithm selection.
	Ledger *telemetry.Ledger
	// Trace attaches a telemetry span to every measured solve. Node
	// counts are unchanged by construction (the engines hook progress and
	// spans at existing checkpoints only); recording a BENCH with Trace
	// on doubles as the overhead proof — see EXPERIMENTS.md.
	Trace bool
}

func (o PerfOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		return g
	}
	return 4
}

func (o PerfOptions) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	return 5
}

func (o PerfOptions) maxNodes() int64 {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return 300_000_000
}

func (o PerfOptions) families() []PerfFamily {
	if len(o.Families) > 0 {
		return o.Families
	}
	return DefaultPerfFamilies
}

// PerfCase is one (family, seed, solver) measurement.
type PerfCase struct {
	Family       string  `json:"family"`
	Case         string  `json:"case"`
	Class        string  `json:"class"`
	Solver       string  `json:"solver"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	Nodes        int64   `json:"nodes"`
	NodesPerSec  float64 `json:"nodes_per_sec"`
	Makespan     int64   `json:"makespan"`
	Optimal      bool    `json:"optimal"`
	Limit        bool    `json:"limit,omitempty"` // node budget exhausted
	SpeedupVsSeq float64 `json:"speedup_vs_seq,omitempty"`
}

// PerfFamilySummary aggregates one family.
type PerfFamilySummary struct {
	Family    string `json:"family"`
	SeqSolver string `json:"seq_solver"`
	ParSolver string `json:"par_solver"`
	Cases     int    `json:"cases"`
	// SeqSolved/ParSolved count instances proven optimal within budget.
	SeqSolved  int     `json:"seq_solved"`
	ParSolved  int     `json:"par_solved"`
	SeqSeconds float64 `json:"seq_seconds"`
	ParSeconds float64 `json:"par_seconds"`
	// WallSpeedup is total sequential wall over total parallel wall;
	// GeomeanSpeedup is the geometric mean of per-seed ratios. When the
	// sequential solver hit its node budget and the parallel one solved,
	// the ratio understates the true speedup.
	WallSpeedup    float64 `json:"wall_speedup"`
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// PerfReport is the BENCH.json payload. ParEngine names the engine
// behind the parallel rows: parEngineRounds for the deterministic rounds
// search; reports from the earlier work-stealing pool (BENCH_8.json and
// before) leave it empty.
type PerfReport struct {
	Schema     string              `json:"schema"`
	Created    string              `json:"created"`
	GoVersion  string              `json:"go"`
	GOOS       string              `json:"goos"`
	GOARCH     string              `json:"goarch"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Workers    int                 `json:"workers"`
	Seeds      int                 `json:"seeds"`
	MaxNodes   int64               `json:"max_nodes"`
	ParEngine  string              `json:"par_engine,omitempty"`
	Cases      []PerfCase          `json:"cases"`
	Summary    []PerfFamilySummary `json:"summary"`
}

// parEngineRounds is PerfReport.ParEngine for the deterministic rounds
// search, whose parallel node counts repeat from run to run.
const parEngineRounds = "rounds"

// PerfHyper generates the MULTIPROC instance RunPerf measures for
// family f and seed.
func PerfHyper(f PerfFamily, seed int64) (*hypergraph.Hypergraph, error) {
	rng := rand.New(rand.NewSource(seed))
	b := hypergraph.NewBuilder(f.NTasks, f.NProcs)
	switch f.Shape {
	case "partition":
		for t := 0; t < f.NTasks; t++ {
			w := f.WMin + rng.Int63n(f.WMax-f.WMin+1)
			for v := 0; v < f.NProcs; v++ {
				b.AddEdge(t, []int{v}, w)
			}
		}
	case "random":
		for t := 0; t < f.NTasks; t++ {
			d := 1 + rng.Intn(f.Degree)
			for j := 0; j < d; j++ {
				size := 1 + rng.Intn(f.MaxEdgeSize)
				if size > f.NProcs {
					size = f.NProcs
				}
				w := f.WMin + rng.Int63n(f.WMax-f.WMin+1)
				b.AddEdge(t, rng.Perm(f.NProcs)[:size], w)
			}
		}
	default:
		return nil, fmt.Errorf("bench: unknown perf shape %q", f.Shape)
	}
	return b.Build()
}

// PerfGraph generates the SINGLEPROC instance RunPerf measures for
// family f and seed.
func PerfGraph(f PerfFamily, seed int64) (*bipartite.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(f.NTasks, f.NProcs)
	switch f.Shape {
	case "partition":
		for t := 0; t < f.NTasks; t++ {
			w := f.WMin + rng.Int63n(f.WMax-f.WMin+1)
			for v := 0; v < f.NProcs; v++ {
				b.AddWeightedEdge(t, v, w)
			}
		}
	case "random":
		for t := 0; t < f.NTasks; t++ {
			d := 1 + rng.Intn(f.Degree)
			if d > f.NProcs {
				d = f.NProcs
			}
			for _, v := range rng.Perm(f.NProcs)[:d] {
				b.AddWeightedEdge(t, v, f.WMin+rng.Int63n(f.WMax-f.WMin+1))
			}
		}
	case "restricted":
		// Restricted identical machines: one weight per task, a random
		// eligible subset of processors — the classic hard shape of
		// makespan scheduling under eligibility constraints.
		for t := 0; t < f.NTasks; t++ {
			w := f.WMin + rng.Int63n(f.WMax-f.WMin+1)
			d := 2 + rng.Intn(f.Degree-1)
			if d > f.NProcs {
				d = f.NProcs
			}
			for _, v := range rng.Perm(f.NProcs)[:d] {
				b.AddWeightedEdge(t, v, w)
			}
		}
	default:
		return nil, fmt.Errorf("bench: unknown perf shape %q", f.Shape)
	}
	return b.Build()
}

// perfSolvers resolves the sequential/parallel solver pair for a class.
func perfSolvers(c registry.Class) (seq, par *registry.Solver, err error) {
	name := "BnB-SP"
	if c == registry.MultiProc {
		name = "BnB-MP"
	}
	if seq, err = registry.LookupClass(c, name); err != nil {
		return nil, nil, err
	}
	par = registry.Preferred(seq)
	if par == seq {
		return nil, nil, fmt.Errorf("bench: %s has no parallel counterpart registered", name)
	}
	return seq, par, nil
}

// RunPerf runs the perf micro-grid. Every solve observes ctx; a
// cancelled context aborts the run (truncated timings would poison the
// trajectory). When both solvers prove optimality on an instance their
// makespans must agree — RunPerf fails otherwise, so every recorded
// BENCH.json doubles as an equivalence witness.
func RunPerf(ctx context.Context, o PerfOptions) (*PerfReport, error) {
	rep := &PerfReport{
		Schema:     "semimatch-bench/v1",
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    o.workers(),
		Seeds:      o.seeds(),
		MaxNodes:   o.maxNodes(),
		ParEngine:  parEngineRounds,
	}
	for _, fam := range o.families() {
		seqSol, parSol, err := perfSolvers(fam.Class)
		if err != nil {
			return nil, err
		}
		sum := PerfFamilySummary{
			Family:    fam.Name,
			SeqSolver: seqSol.Name,
			ParSolver: parSol.Name,
		}
		var logSum float64
		for seed := 1; seed <= o.seeds(); seed++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("bench: perf run aborted: %w", err)
			}
			caseName := fmt.Sprintf("%s/seed=%d", fam.Name, seed)
			var g *bipartite.Graph
			var h *hypergraph.Hypergraph
			if fam.Class == registry.SingleProc {
				g, err = PerfGraph(fam, int64(seed))
			} else {
				h, err = PerfHyper(fam, int64(seed))
			}
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", caseName, err)
			}
			measure := func(sol *registry.Solver, workers int) (PerfCase, error) {
				var st exact.SearchStats
				opts := registry.Options{
					BnB: exact.Options{MaxNodes: o.maxNodes(), Stats: &st, Workers: workers},
				}
				var tr *telemetry.Span
				if o.Trace {
					tr = telemetry.StartSpan("bench-solve")
					tr.SetAttr("case", caseName)
					tr.SetAttr("solver", sol.Name)
					opts.BnB.Trace = tr
				}
				start := time.Now()
				var m int64
				var solveErr error
				if fam.Class == registry.SingleProc {
					var a core.Assignment
					a, solveErr = sol.SolveSingle(ctx, g, opts)
					if a != nil {
						m = core.Makespan(g, a)
					}
				} else {
					var a core.HyperAssignment
					a, solveErr = sol.SolveHyper(ctx, h, opts)
					if a != nil {
						m = core.HyperMakespan(h, a)
					}
				}
				wall := time.Since(start).Seconds()
				tr.End()
				if solveErr != nil && !registry.IncumbentError(solveErr) {
					return PerfCase{}, fmt.Errorf("bench: %s: %s: %w", caseName, sol.Name, solveErr)
				}
				// A deadline that expired mid-solve yields an incumbent
				// error too, but its timing is garbage — abort rather
				// than record it (the ctx.Err guard above only catches
				// cancellation between seeds).
				if ctx.Err() != nil {
					return PerfCase{}, fmt.Errorf("bench: perf run aborted: %w", ctx.Err())
				}
				pc := PerfCase{
					Family:      fam.Name,
					Case:        caseName,
					Class:       fam.Class.String(),
					Solver:      sol.Name,
					Workers:     workers,
					WallSeconds: wall,
					Nodes:       st.Nodes,
					Makespan:    m,
					Optimal:     solveErr == nil,
					Limit:       errors.Is(solveErr, exact.ErrLimit),
				}
				if wall > 0 {
					pc.NodesPerSec = float64(st.Nodes) / wall
				}
				if o.Ledger != nil {
					var feats telemetry.InstanceFeatures
					if fam.Class == registry.SingleProc {
						feats = solve.Features(solve.Bipartite(g))
					} else {
						feats = solve.Features(solve.Hyper(h))
					}
					status := "optimal"
					switch {
					case pc.Limit:
						status = "heuristic" // a node-budget stop, as solve.Run labels it
					case solveErr != nil:
						status = "truncated"
					}
					if err := o.Ledger.Append(telemetry.SolveRecord{
						Source:           "bench",
						InstanceFeatures: feats,
						Algorithm:        sol.Name,
						WallS:            wall,
						Nodes:            st.Nodes,
						Makespan:         m,
						Bound:            st.Bound,
						Status:           status,
					}); err != nil {
						return PerfCase{}, fmt.Errorf("bench: ledger: %w", err)
					}
				}
				return pc, nil
			}
			seqCase, err := measure(seqSol, 1)
			if err != nil {
				return nil, err
			}
			parCase, err := measure(parSol, o.workers())
			if err != nil {
				return nil, err
			}
			if seqCase.Optimal && parCase.Optimal && seqCase.Makespan != parCase.Makespan {
				return nil, fmt.Errorf("bench: %s: optimal makespans disagree: %s=%d, %s=%d",
					caseName, seqSol.Name, seqCase.Makespan, parSol.Name, parCase.Makespan)
			}
			ratio := seqCase.WallSeconds / parCase.WallSeconds
			parCase.SpeedupVsSeq = ratio
			rep.Cases = append(rep.Cases, seqCase, parCase)
			sum.Cases++
			if seqCase.Optimal {
				sum.SeqSolved++
			}
			if parCase.Optimal {
				sum.ParSolved++
			}
			sum.SeqSeconds += seqCase.WallSeconds
			sum.ParSeconds += parCase.WallSeconds
			logSum += math.Log(ratio)
		}
		if sum.ParSeconds > 0 {
			sum.WallSpeedup = sum.SeqSeconds / sum.ParSeconds
		}
		sum.GeomeanSpeedup = math.Exp(logSum / float64(sum.Cases))
		rep.Summary = append(rep.Summary, sum)
	}
	return rep, nil
}

// WritePerfJSON writes the report as indented JSON — the BENCH.json
// trajectory file format.
func WritePerfJSON(w io.Writer, rep *PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FormatPerfSummary renders the per-family aggregate as a text table —
// the human-readable view of BENCH.json.
func FormatPerfSummary(rep *PerfReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perf grid: %d seeds/family, workers=%d, budget=%d nodes (%s %s/%s, GOMAXPROCS=%d)\n",
		rep.Seeds, rep.Workers, rep.MaxNodes, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.GOMAXPROCS)
	fmt.Fprintf(&sb, "%-20s %-10s %-12s %9s %9s %9s %9s %10s %9s\n",
		"family", "seq", "par", "seq-opt", "par-opt", "seq-s", "par-s", "wall-spd", "geo-spd")
	for _, s := range rep.Summary {
		fmt.Fprintf(&sb, "%-20s %-10s %-12s %6d/%-2d %6d/%-2d %9.3f %9.3f %9.2fx %8.2fx\n",
			s.Family, s.SeqSolver, s.ParSolver,
			s.SeqSolved, s.Cases, s.ParSolved, s.Cases,
			s.SeqSeconds, s.ParSeconds, s.WallSpeedup, s.GeomeanSpeedup)
	}
	return sb.String()
}
