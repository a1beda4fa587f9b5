package solve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/cert"
	"semimatch/internal/core"
	"semimatch/internal/encode"
	"semimatch/internal/exact"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
	"semimatch/internal/registry"
	"semimatch/internal/telemetry"
)

// randomHyper builds a seeded MULTIPROC instance.
func randomHyper(seed int64, nTasks, nProcs, maxDeg, maxSize int, maxW int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	b := hypergraph.NewBuilder(nTasks, nProcs)
	for t := 0; t < nTasks; t++ {
		d := 1 + rng.Intn(maxDeg)
		for j := 0; j < d; j++ {
			size := 1 + rng.Intn(maxSize)
			if size > nProcs {
				size = nProcs
			}
			w := int64(1)
			if maxW > 1 {
				w = 1 + rng.Int63n(maxW)
			}
			b.AddEdge(t, rng.Perm(nProcs)[:size], w)
		}
	}
	return b.MustBuild()
}

// weightedGraph builds a seeded weighted SINGLEPROC instance.
func weightedGraph(seed int64, nTasks, nProcs, maxDeg int, maxW int64) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(nTasks, nProcs)
	for t := 0; t < nTasks; t++ {
		d := 1 + rng.Intn(maxDeg)
		perm := rng.Perm(nProcs)
		for j := 0; j < d && j < nProcs; j++ {
			b.AddWeightedEdge(t, perm[j], 1+rng.Int63n(maxW))
		}
	}
	return b.MustBuild()
}

// hardHyper is a number-partitioning instance whose branch-and-bound
// search runs effectively forever without a node or time budget.
func hardHyper(seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	const n, p = 24, 3
	b := hypergraph.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		w := 100_000_000 + rng.Int63n(900_000_000)
		for u := 0; u < p; u++ {
			b.AddEdge(t, []int{u}, w)
		}
	}
	return b.MustBuild()
}

func unitGraph(t *testing.T, seed int64) *bipartite.Graph {
	t.Helper()
	g, err := gen.Bipartite(gen.FewgManyg, 30, 8, 4, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkReport(t *testing.T, p Problem, rep *Report) {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	if rep.Class != p.Class() {
		t.Fatalf("report class %v, problem class %v", rep.Class, p.Class())
	}
	var err error
	if h := p.Hypergraph(); h != nil {
		err = core.ValidateHyperAssignment(h, core.HyperAssignment(rep.Assignment))
	} else {
		err = core.ValidateAssignment(p.Graph(), core.Assignment(rep.Assignment))
	}
	if err != nil {
		t.Fatalf("invalid assignment: %v", err)
	}
	m, _ := p.MakespanLoads(rep.Assignment)
	if m != rep.Makespan {
		t.Fatalf("reported makespan %d, assignment yields %d", rep.Makespan, m)
	}
	if rep.LowerBound > rep.Makespan {
		t.Fatalf("lower bound %d exceeds makespan %d", rep.LowerBound, rep.Makespan)
	}
	if rep.Status == StatusOptimal && rep.Solver == "" {
		t.Fatal("optimal report without a solver name")
	}
}

// TestRunNamedEverySolver drives every registered solver — both classes,
// auxiliary and online included — through the one class-generic entry
// point and cross-checks the reported schedule.
func TestRunNamedEverySolver(t *testing.T) {
	g := unitGraph(t, 1)
	h := randomHyper(2, 30, 6, 3, 3, 9)
	// Exponential solvers get small instances so the full search stays
	// fast even at the default node budget.
	gSmall := weightedGraph(1, 12, 4, 3, 9)
	hSmall := randomHyper(2, 12, 4, 3, 3, 9)
	for _, sol := range registry.Solvers() {
		sol := sol
		t.Run(sol.Name, func(t *testing.T) {
			var p Problem
			switch {
			case sol.Class == registry.SingleProc && sol.Cost == registry.CostExponential:
				p = Bipartite(gSmall)
			case sol.Class == registry.SingleProc:
				p = Bipartite(g)
			case sol.Cost == registry.CostExponential:
				p = Hyper(hSmall)
			default:
				p = Hyper(h)
			}
			rep, err := Run(context.Background(), p, WithAlgorithm(sol.Name))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, p, rep)
			if rep.Solver != sol.Name {
				t.Fatalf("report solver %q, want %q", rep.Solver, sol.Name)
			}
			// An exact solver proves its schedule optimal; any other
			// schedule is optimal only when a re-derivable bound meets it.
			exactKind := sol.Kind == registry.Exact
			if exactKind && rep.Status != StatusOptimal ||
				!exactKind && rep.Status == StatusOptimal && rep.Certificate.Witness.Kind == cert.WitnessExhaustive {
				t.Fatalf("kind %v solver finished with status %v (witness %s)", sol.Kind, rep.Status, rep.Certificate.Witness.Kind)
			}
			if sol.Cost == registry.CostExponential && rep.Stats.Nodes == 0 {
				t.Fatal("branch-and-bound run reported zero search nodes")
			}
		})
	}
}

// TestRunAutoProvesOptimality: the auto policy must match the exact
// solvers on small instances of both classes.
func TestRunAutoProvesOptimality(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		h := randomHyper(seed, 10, 3, 3, 2, 7)
		_, want, err := exact.SolveMultiProc(context.Background(), h, exact.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), Hyper(h))
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, Hyper(h), rep)
		if rep.Status != StatusOptimal || rep.Makespan != want {
			t.Fatalf("seed %d: auto got %d (%v), optimum %d", seed, rep.Makespan, rep.Status, want)
		}

		g := weightedGraph(seed, 10, 4, 3, 9)
		_, wantSP, err := exact.SolveSingleProc(context.Background(), g, exact.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		repSP, err := Run(context.Background(), Bipartite(g))
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, Bipartite(g), repSP)
		if repSP.Status != StatusOptimal || repSP.Makespan != wantSP {
			t.Fatalf("seed %d: SP auto got %d (%v), optimum %d", seed, repSP.Makespan, repSP.Status, wantSP)
		}
	}
}

// TestRunAutoUnitGraphUsesExactUnit: unit bipartite instances are proven
// optimal at any size, with ExactUnit's optimum: by the ⌈n/p⌉ bound when
// the race meets it, else by ExactUnit.
func TestRunAutoUnitGraphUsesExactUnit(t *testing.T) {
	g := unitGraph(t, 3)
	rep, err := Run(context.Background(), Bipartite(g))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, Bipartite(g), rep)
	if rep.Status != StatusOptimal {
		t.Fatalf("unit auto status %v, want optimal", rep.Status)
	}
	_, want, err := core.ExactUnit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != want {
		t.Fatalf("auto makespan %d, ExactUnit %d", rep.Makespan, want)
	}
}

// TestExactUnitScales: a unit SINGLEPROC instance of 20,000 tasks on 10
// processors, each task eligible on 1–3 of them, is proven optimal by
// ExactUnit within a 2 s deadline. ExactUnit bisects the deadline D, so
// it runs O(log n) matchings where counting D up from 1 runs one per
// value below the optimum (about 2,000 here). The race detector slows
// the matcher past the deadline, so only the status is checked there.
func TestExactUnitScales(t *testing.T) {
	g := weightedGraph(1, 20000, 10, 3, 1)
	if !g.Unit() {
		t.Fatal("instance is not unit")
	}
	const deadline = 2 * time.Second
	start := time.Now()
	// The auto policy skips ExactUnit here, as the race already meets
	// ⌈n/p⌉ (TestUnitBoundSkipsExactUnit), so the solver is named.
	rep, err := RunOptions(context.Background(), Bipartite(g), Options{Algorithm: "ExactUnit", Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > deadline && !raceDetector {
		t.Fatalf("Run took %v, past its %v deadline", elapsed, deadline)
	}
	checkReport(t, Bipartite(g), rep)
	if rep.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", rep.Status)
	}
}

// TestUnitBoundSkipsExactUnit: when the race already meets a unit
// SINGLEPROC instance's ⌈n/p⌉ bound, the auto policy runs no exact stage
// and answers as it did when ExactUnit ran after the race: the same
// solver, makespan, witness and schedule. When the race misses the
// bound, ExactUnit still runs.
func TestUnitBoundSkipsExactUnit(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		n, p     int
		solver   string
		makespan int64
		digest   string // sha256 of the assignment, little-endian int32s
	}{
		{1, 20000, 10, "expected", 2000, "5a5c7821237cddf0"},
		{2, 2000, 8, "expected", 250, "30053b0a37a758d6"},
		{3, 300, 7, "sorted", 43, "dbd470f2c29edd5a"},
	} {
		g := weightedGraph(tc.seed, tc.n, tc.p, 3, 1)
		rep, err := Run(context.Background(), Bipartite(g), WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, rep.Assignment)
		digest := hex.EncodeToString(h.Sum(nil)[:8])
		if rep.Solver != tc.solver || rep.Makespan != tc.makespan || digest != tc.digest ||
			rep.Certificate.Witness.Kind != cert.WitnessAverageLoad {
			t.Fatalf("seed %d: %s, makespan %d, witness %s, assignment %s; want %s, %d, average-load, %s",
				tc.seed, rep.Solver, rep.Makespan, rep.Certificate.Witness.Kind, digest, tc.solver, tc.makespan, tc.digest)
		}
		if names := spanNames(rep.Trace.Children()); contains(names, "exact") {
			t.Fatalf("seed %d: spans %v, want no exact stage", tc.seed, names)
		}
	}

	// Three tasks eligible on processor 0 only: ⌈3/2⌉ = 2 but every
	// schedule has makespan 3, so ExactUnit runs and proves it.
	b := bipartite.NewBuilder(3, 2)
	for task := 0; task < 3; task++ {
		b.AddEdge(task, 0)
	}
	rep, err := Run(context.Background(), Bipartite(b.MustBuild()), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if names := spanNames(rep.Trace.Children()); !contains(names, "exact") || rep.Status != StatusOptimal || rep.Makespan != 3 {
		t.Fatalf("bound missed: spans %v, status %v, makespan %d; want an exact stage proving 3", names, rep.Status, rep.Makespan)
	}
}

// TestExactSolverChoice pins the auto policy's exact-stage choice: unit
// SINGLEPROC instances get ExactUnit at any size, other instances each
// class's parallel branch and bound up to the task limit, and nothing
// above it or under a negative limit.
func TestExactSolverChoice(t *testing.T) {
	unit := Bipartite(unitGraph(t, 3))
	weighted := Bipartite(weightedGraph(1, 10, 4, 3, 20))
	multi := Hyper(randomHyper(1, 10, 4, 3, 2, 20))
	for _, tc := range []struct {
		name  string
		p     Problem
		limit int
		want  string
	}{
		{"unit within limit", unit, 100, "ExactUnit"},
		{"unit above limit", unit, unit.NTasks() - 1, "ExactUnit"},
		{"weighted SINGLEPROC", weighted, 10, "BnB-SP-Par"},
		{"MULTIPROC", multi, 10, "BnB-MP-Par"},
		{"weighted above limit", weighted, 9, ""},
		{"MULTIPROC above limit", multi, 9, ""},
		{"unit negative limit", unit, -1, ""},
		{"weighted negative limit", weighted, -1, ""},
		{"MULTIPROC negative limit", multi, -1, ""},
	} {
		got := ""
		if s := exactSolver(tc.p, tc.limit); s != nil {
			got = s.Name
		}
		if got != tc.want {
			t.Errorf("%s: exactSolver = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestColdNodesIsColdExactStage: ColdNodes counts exactly the nodes of
// the exact stage a cold Run performs — whatever warm start, observer,
// trace or progress hook the options carry — on both classes, with the
// stage off, at its default task limit and at a raised one, sequential
// and parallel.
func TestColdNodesIsColdExactStage(t *testing.T) {
	ctx := context.Background()
	searched := 0
	for name, p := range optimalityGrid(t, 1) {
		for _, limit := range []int{-1, 0, 24} {
			for _, workers := range []int{1, 2} {
				o := Options{ExactTaskLimit: limit, Workers: workers, NodeBudget: 100_000}
				ref, err := RunOptions(ctx, p, o)
				if err != nil {
					t.Fatal(err)
				}
				noisy := o
				noisy.InitialIncumbent = ref.Assignment
				noisy.Observer = func(Incumbent) {}
				noisy.Trace = true
				noisy.Progress = func(telemetry.SearchProgress) {}
				for _, co := range []Options{o, noisy} {
					if got := ColdNodes(ctx, p, co); got != ref.Stats.Nodes {
						t.Fatalf("%s limit=%d workers=%d: ColdNodes %d, cold Run %d nodes",
							name, limit, workers, got, ref.Stats.Nodes)
					}
				}
				if ref.Stats.Nodes > 0 {
					searched++
				}
			}
		}
	}
	if searched == 0 {
		t.Fatal("no instance got a branch-and-bound search")
	}

	h := Hyper(hardHyper(7))
	done, cancel := context.WithCancel(ctx)
	cancel()
	if n := ColdNodes(done, h, Options{}); n != 0 {
		t.Fatalf("ColdNodes on a done context searched %d nodes", n)
	}
	if n := ColdNodes(ctx, Problem{}, Options{}); n != 0 {
		t.Fatalf("ColdNodes on an empty problem searched %d nodes", n)
	}
	start := time.Now()
	ColdNodes(ctx, h, Options{Deadline: 30 * time.Millisecond, ExactTaskLimit: 64, NodeBudget: 1 << 60})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not honored: %v", elapsed)
	}
}

// TestRunDeadlineTruncates: an impossible deadline degrades to the best
// schedule found so far instead of failing.
func TestRunDeadlineTruncates(t *testing.T) {
	h := hardHyper(7)
	start := time.Now()
	rep, err := Run(context.Background(), Hyper(h),
		WithDeadline(30*time.Millisecond),
		WithExactLimit(64),
		WithNodeBudget(1<<60))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not honored: %v", elapsed)
	}
	checkReport(t, Hyper(h), rep)
	if rep.Status != StatusTruncated {
		t.Fatalf("status %v, want truncated", rep.Status)
	}
}

// TestRunNamedNodeBudgetTruncates: a tiny node budget truncates a named
// exact solver's search, which keeps its incumbent. With no deadline the
// stop is complete and deterministic, so the schedule reads heuristic.
func TestRunNamedNodeBudgetTruncates(t *testing.T) {
	h := hardHyper(8)
	for _, alg := range []string{"BnB-MP", "BnB-MP-Par"} {
		rep, err := Run(context.Background(), Hyper(h),
			WithAlgorithm(alg), WithNodeBudget(5000), WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkReport(t, Hyper(h), rep)
		if rep.Status != StatusHeuristic {
			t.Fatalf("%s: status %v, want heuristic", alg, rep.Status)
		}
	}
}

// TestRunPortfolioRestriction: WithPortfolio restricts the race and the
// winner comes from the drafted set (canonical name).
func TestRunPortfolioRestriction(t *testing.T) {
	h := randomHyper(11, 20, 5, 3, 3, 9)
	rep, err := Run(context.Background(), Hyper(h),
		WithPortfolio("sgh"), WithExactLimit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solver != "SGH" {
		t.Fatalf("winner %q, want SGH", rep.Solver)
	}
	if rep.Status != StatusHeuristic {
		t.Fatalf("status %v, want heuristic (exact stage disabled)", rep.Status)
	}

	// SINGLEPROC: same option, same semantics.
	g := weightedGraph(12, 20, 5, 3, 9)
	repSP, err := Run(context.Background(), Bipartite(g),
		WithPortfolio("sorted"), WithExactLimit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if repSP.Solver != "sorted" {
		t.Fatalf("SP winner %q, want sorted", repSP.Solver)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), Problem{}); !errors.Is(err, ErrEmptyProblem) {
		t.Fatalf("empty problem: %v", err)
	}
	h := randomHyper(1, 4, 2, 2, 2, 3)
	if _, err := Run(context.Background(), Hyper(h), WithAlgorithm("no-such")); err == nil ||
		!strings.Contains(err.Error(), "no-such") {
		t.Fatalf("unknown algorithm: %v", err)
	}
	// A class mismatch through WithAlgorithm resolves in the problem's
	// class, so an SP-only name on a hypergraph is unknown.
	if _, err := Run(context.Background(), Hyper(h), WithAlgorithm("ExactUnit")); err == nil {
		t.Fatal("SP-only algorithm accepted for a hypergraph")
	}
	if _, err := Run(context.Background(), Hyper(h), WithPortfolio("nope")); err == nil {
		t.Fatal("unknown portfolio member accepted")
	}
	if _, err := NewProblem(42); err == nil {
		t.Fatal("NewProblem accepted an int")
	}
	// A task with no eligible processor has no schedule: Run refuses it
	// under every policy instead of panicking or leaving it unassigned.
	empty, err := bipartite.NewFromAdjacency(2, [][]int{{0, 1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	isolated := []*bipartite.Graph{empty}
	for _, body := range []string{"bipartite 2 2 weighted\n0 0 3\n0 1 5\n", "bipartite 2 2 unit\n0 0\n0 1\n"} {
		inst, err := encode.Parse([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		isolated = append(isolated, inst.(*bipartite.Graph))
	}
	for i, g := range isolated {
		for _, alg := range []string{"", "sorted", "LPT", "ExactUnit", "bnb"} {
			if _, err := Run(context.Background(), Bipartite(g), WithAlgorithm(alg)); err == nil {
				t.Fatalf("graph %d, algorithm %q: isolated task accepted", i, alg)
			}
		}
		if _, err := NewProblem(g); err == nil {
			t.Fatalf("graph %d: NewProblem accepted an isolated task", i)
		}
	}
}

// TestProblemAccessors covers the carrier type's metadata surface.
func TestProblemAccessors(t *testing.T) {
	g := unitGraph(t, 5)
	h := randomHyper(5, 8, 3, 2, 2, 5)
	pg, ph := Bipartite(g), Hyper(h)
	if pg.Class() != registry.SingleProc || ph.Class() != registry.MultiProc {
		t.Fatal("class mismatch")
	}
	if pg.NTasks() != g.NLeft || pg.NProcs() != g.NRight {
		t.Fatal("bipartite dims")
	}
	if ph.NTasks() != h.NTasks || ph.NProcs() != h.NProcs {
		t.Fatal("hypergraph dims")
	}
	fp1, err := ph.Fingerprint()
	if err != nil || fp1 == "" {
		t.Fatalf("fingerprint: %q, %v", fp1, err)
	}
	if !strings.Contains(pg.String(), "SINGLEPROC") || !strings.Contains(ph.String(), "MULTIPROC") {
		t.Fatalf("String(): %q / %q", pg.String(), ph.String())
	}
	if p, err := NewProblem(g); err != nil || p.Graph() != g {
		t.Fatal("NewProblem(*Graph)")
	}
	if p, err := NewProblem(h); err != nil || p.Hypergraph() != h {
		t.Fatal("NewProblem(*Hypergraph)")
	}
}

// TestRunDeterministicAcrossWorkers: for a fixed problem and options the
// reported makespan, solver and status do not depend on Workers.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, p := range []Problem{
			Hyper(randomHyper(seed+50, 14, 4, 3, 3, 12)),
			Bipartite(weightedGraph(seed+50, 14, 4, 3, 12)),
		} {
			base, err := RunOptions(context.Background(), p, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			multi, err := RunOptions(context.Background(), p, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if base.Makespan != multi.Makespan || base.Solver != multi.Solver || base.Status != multi.Status {
				t.Fatalf("%v seed %d: workers=1 (%d,%s,%v) vs workers=4 (%d,%s,%v)", p, seed,
					base.Makespan, base.Solver, base.Status, multi.Makespan, multi.Solver, multi.Status)
			}
		}
	}
}
