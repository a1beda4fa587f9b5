package semimatch_test

// The API-compatibility golden suite of the Problem → Run → Report
// redesign: the surviving flat entry points must keep compiling, keep
// working, and produce the same makespans as the unified Run on seeded
// instances. The pre-Run wrappers (the eight exact entry points,
// Portfolio, Refine, SolveBatch) are gone; the makespans they returned on
// these seeds are pinned below as Run/SolveProblems goldens. If an
// intentional API change breaks this suite, update it together with
// docs/api-surface.txt (the CI surface guard).

import (
	"context"
	"math/rand"
	"testing"

	"semimatch"
)

func seededGraph(t *testing.T, seed int64) *semimatch.Graph {
	t.Helper()
	g, err := semimatch.GenerateBipartite(semimatch.FewgManyg, 40, 8, 4, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func seededWeightedGraph(seed int64, nTasks, nProcs int) *semimatch.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := semimatch.NewGraphBuilder(nTasks, nProcs)
	for task := 0; task < nTasks; task++ {
		d := 1 + rng.Intn(3)
		perm := rng.Perm(nProcs)
		for j := 0; j < d && j < nProcs; j++ {
			b.AddWeightedEdge(task, perm[j], 1+rng.Int63n(9))
		}
	}
	return b.MustBuild()
}

func seededHyper(t *testing.T, seed int64, n int) *semimatch.Hypergraph {
	t.Helper()
	h, err := semimatch.GenerateHypergraph(semimatch.HyperParams{
		Gen: semimatch.FewgManyg, N: n, P: 6, Dv: 3, Dh: 2, G: 3,
		Weights: semimatch.Random, MaxW: 9,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runMakespan solves p through the new entry point with one named
// algorithm and returns the reported makespan.
func runMakespan(t *testing.T, p semimatch.Problem, alg string, extra ...semimatch.Option) int64 {
	t.Helper()
	rep, err := semimatch.Run(context.Background(), p, append([]semimatch.Option{semimatch.WithAlgorithm(alg)}, extra...)...)
	if err != nil {
		t.Fatalf("Run(%s): %v", alg, err)
	}
	return rep.Makespan
}

// TestCompatSingleProcHeuristics: the flat heuristic entry points and
// their Run(WithAlgorithm) counterparts agree on every seed.
func TestCompatSingleProcHeuristics(t *testing.T) {
	type entry struct {
		name string
		fn   func(*semimatch.Graph) semimatch.Assignment
	}
	entries := []entry{
		{"basic", semimatch.BasicGreedy},
		{"sorted", semimatch.SortedGreedy},
		{"double", semimatch.DoubleSorted},
		{"expected", semimatch.ExpectedGreedy},
	}
	for seed := int64(0); seed < 3; seed++ {
		g := seededGraph(t, seed)
		p := semimatch.GraphProblem(g)
		for _, e := range entries {
			old := semimatch.Makespan(g, e.fn(g))
			if got := runMakespan(t, p, e.name); got != old {
				t.Fatalf("seed %d %s: flat %d, Run %d", seed, e.name, old, got)
			}
		}
		if old := semimatch.Makespan(g, semimatch.LPTGreedy(g)); old != runMakespan(t, p, "LPT") {
			t.Fatalf("seed %d LPT mismatch", seed)
		}
		if a, _, err := semimatch.OnlineReplay(g, nil); err != nil {
			t.Fatal(err)
		} else if old := semimatch.Makespan(g, a); old != runMakespan(t, p, "OnlineGreedy") {
			t.Fatalf("seed %d OnlineGreedy mismatch", seed)
		}
	}
}

// TestCompatSingleProcExact: ExactUnit and Harvey agree with Run on unit
// instances, and the branch-and-bound pair keeps the optima the removed
// SolveSingleProc/SolveSingleProcPar entry points returned.
func TestCompatSingleProcExact(t *testing.T) {
	// Optimal weighted makespans of seededWeightedGraph(seed, 12, 4).
	bnbWant := []int64{25, 12, 9}
	for seed := int64(0); seed < 3; seed++ {
		g := seededGraph(t, seed)
		p := semimatch.GraphProblem(g)
		_, opt, err := semimatch.ExactUnit(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := runMakespan(t, p, "ExactUnit"); got != opt {
			t.Fatalf("seed %d ExactUnit: flat %d, Run %d", seed, opt, got)
		}
		if got := runMakespan(t, p, "Harvey"); got != opt {
			t.Fatalf("seed %d Harvey: %d, want %d", seed, got, opt)
		}

		// Weighted branch and bound, sequential and parallel.
		pw := semimatch.GraphProblem(seededWeightedGraph(seed, 12, 4))
		if got := runMakespan(t, pw, "BnB-SP"); got != bnbWant[seed] {
			t.Fatalf("seed %d BnB-SP: %d, want %d", seed, got, bnbWant[seed])
		}
		if got := runMakespan(t, pw, "bnb-par", semimatch.WithWorkers(2)); got != bnbWant[seed] {
			t.Fatalf("seed %d BnB-SP-Par: %d, want %d", seed, got, bnbWant[seed])
		}
	}
}

// TestCompatMultiProc: the flat hypergraph heuristics and the
// exact-arithmetic ablations agree with Run, and the branch-and-bound
// pair keeps the optima the removed SolveMultiProc/SolveMultiProcPar
// entry points returned.
func TestCompatMultiProc(t *testing.T) {
	type entry struct {
		name string
		fn   func(*semimatch.Hypergraph) semimatch.HyperAssignment
	}
	entries := []entry{
		{"SGH", semimatch.SortedGreedyHyp},
		{"VGH", semimatch.VectorGreedyHyp},
		{"EGH", semimatch.ExpectedGreedyHyp},
		{"EVG", semimatch.ExpectedVectorGreedyHyp},
	}
	// Optimal makespans of seededHyper(seed+10, 12).
	bnbWant := []int64{16, 16, 11}
	for seed := int64(0); seed < 3; seed++ {
		h := seededHyper(t, seed, 40)
		p := semimatch.HypergraphProblem(h)
		for _, e := range entries {
			old := semimatch.HyperMakespan(h, e.fn(h))
			if got := runMakespan(t, p, e.name); got != old {
				t.Fatalf("seed %d %s: flat %d, Run %d", seed, e.name, old, got)
			}
		}
		if a, err := semimatch.ExpectedGreedyHypExact(h); err != nil {
			t.Fatal(err)
		} else if old := semimatch.HyperMakespan(h, a); old != runMakespan(t, p, "EGH-X") {
			t.Fatalf("seed %d EGH-X mismatch", seed)
		}

		ps := semimatch.HypergraphProblem(seededHyper(t, seed+10, 12))
		if got := runMakespan(t, ps, "BnB-MP"); got != bnbWant[seed] {
			t.Fatalf("seed %d BnB-MP: %d, want %d", seed, got, bnbWant[seed])
		}
		if got := runMakespan(t, ps, "bnb-par", semimatch.WithWorkers(2)); got != bnbWant[seed] {
			t.Fatalf("seed %d BnB-MP-Par: %d, want %d", seed, got, bnbWant[seed])
		}
	}
}

// TestCompatPortfolio: Run's auto policy with the exact stage disabled is
// the refined heuristic race the removed Portfolio ran: same winner, same
// makespan on every seed.
func TestCompatPortfolio(t *testing.T) {
	want := []struct {
		makespan int64
		winner   string
	}{{30, "VGH"}, {31, "VGH"}, {35, "EVG"}}
	for seed := int64(0); seed < 3; seed++ {
		h := seededHyper(t, seed, 30)
		rep, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
			semimatch.WithRefine(), semimatch.WithExactLimit(-1))
		if err != nil {
			t.Fatal(err)
		}
		if w := want[seed]; rep.Makespan != w.makespan || rep.Solver != w.winner {
			t.Fatalf("seed %d: Run (%d, %s), want (%d, %s)",
				seed, rep.Makespan, rep.Solver, w.makespan, w.winner)
		}
	}
}

// TestCompatSolveBatch: SolveProblems reports the makespans and
// optimality the removed hypergraph-only SolveBatch returned on the same
// instances.
func TestCompatSolveBatch(t *testing.T) {
	want := []int64{18, 14, 14, 14, 17, 15, 18, 17}
	var problems []semimatch.Problem
	for seed := int64(0); seed < 8; seed++ {
		problems = append(problems, semimatch.HypergraphProblem(seededHyper(t, seed+20, 8+int(seed))))
	}
	outs, err := semimatch.SolveProblems(context.Background(), problems, semimatch.WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("instance %d: %v", i, o.Err)
		}
		if rep := o.Report; rep.Makespan != want[i] || !rep.Optimal() {
			t.Fatalf("instance %d: SolveProblems (%d, optimal %v), want (%d, optimal)",
				i, rep.Makespan, rep.Optimal(), want[i])
		}
	}
}

// TestCompatSchedFrontEnd: the scheduling front end still solves through
// the registry and agrees with Run on its hypergraph form.
func TestCompatSchedFrontEnd(t *testing.T) {
	in := semimatch.NewInstance("p0", "p1", "p2")
	in.AddTask("a",
		semimatch.Config{Procs: []int{0}, Time: 6},
		semimatch.Config{Procs: []int{1, 2}, Time: 3})
	in.AddTask("b", semimatch.Config{Procs: []int{1}, Time: 4})
	in.AddTask("c", semimatch.Config{Procs: []int{0, 2}, Time: 2})
	s, err := semimatch.Solve(in, semimatch.ExactSchedule)
	if err != nil {
		t.Fatal(err)
	}
	h, err := in.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != semimatch.StatusOptimal || rep.Makespan != s.Makespan {
		t.Fatalf("sched %d vs Run %d (%v)", s.Makespan, rep.Makespan, rep.Status)
	}
}

// TestCompatServiceAndFingerprint: the service path and Problem
// fingerprints stay aligned with the flat API.
func TestCompatServiceAndFingerprint(t *testing.T) {
	h := seededHyper(t, 33, 10)
	fp1, err := semimatch.Fingerprint(h)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := semimatch.HypergraphProblem(h).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("Fingerprint %s vs Problem.Fingerprint %s", fp1, fp2)
	}

	svc := semimatch.NewService(semimatch.ServiceOptions{})
	res, err := svc.Solve(context.Background(), h, "EVG")
	if err != nil {
		t.Fatal(err)
	}
	want := semimatch.HyperMakespan(h, semimatch.ExpectedVectorGreedyHyp(h))
	if res.Makespan != want {
		t.Fatalf("service EVG %d, flat EVG %d", res.Makespan, want)
	}
}

// TestCompatSymbolLedger pins the rest of the pre-redesign surface at
// compile time: if a future change drops or retypes one of these
// symbols, this file stops compiling (and the CI API-surface guard
// flags the doc diff).
func TestCompatSymbolLedger(t *testing.T) {
	var (
		_ semimatch.Solver          //nolint
		_ semimatch.SolverClass     //nolint
		_ semimatch.SolverKind      //nolint
		_ semimatch.SolverCost      //nolint
		_ semimatch.Graph           //nolint
		_ semimatch.GraphBuilder    //nolint
		_ semimatch.Hypergraph      //nolint
		_ semimatch.Assignment      //nolint
		_ semimatch.HyperAssignment //nolint
		_ semimatch.OnlineScheduler //nolint
		_ semimatch.BnBOptions      //nolint
		_ semimatch.BnBStats        //nolint
		_ semimatch.Generator       //nolint
		_ semimatch.WeightScheme    //nolint
		_ semimatch.HyperParams     //nolint
		_ semimatch.X3C             //nolint
		_ semimatch.Config          //nolint
		_ semimatch.Task            //nolint
		_ semimatch.Instance        //nolint
		_ semimatch.Schedule        //nolint
		_ semimatch.Timeline        //nolint
		_ semimatch.Algorithm       //nolint
		_ semimatch.Service         //nolint
		_ semimatch.ServiceOptions  //nolint
		_ semimatch.ServiceResult   //nolint
		_ semimatch.ServiceStats    //nolint
		_ semimatch.Certificate     //nolint
		_ semimatch.CertWitness     //nolint
		_ semimatch.WitnessKind     //nolint
		_ semimatch.TrustTier       //nolint
	)
	var _ = []any{
		semimatch.Solvers, semimatch.LookupSolver, semimatch.LookupClassSolver,
		semimatch.NewGraphBuilder, semimatch.NewHypergraphBuilder,
		semimatch.LowerBoundSingle, semimatch.LowerBound,
		semimatch.ExactUnit, semimatch.HarveyOptimal,
		semimatch.NewOnlineScheduler, semimatch.OnlineReplay, semimatch.OnlineCompetitiveRatio,
		semimatch.Loads, semimatch.Makespan, semimatch.ValidateAssignment,
		semimatch.HyperLoads, semimatch.HyperMakespan, semimatch.ValidateHyperAssignment,
		semimatch.SolveProblems,
		semimatch.GenerateBipartite, semimatch.GenerateHypergraph,
		semimatch.Fig1, semimatch.Chain, semimatch.ChainPlus, semimatch.ExpectedTrap,
		semimatch.NewInstance, semimatch.Solve, semimatch.SolveByName,
		semimatch.Fingerprint, semimatch.NewService,
		semimatch.Verify, semimatch.CertBounds, semimatch.WithVerify,
		semimatch.WriteGraph, semimatch.ReadGraph,
		semimatch.WriteHypergraph, semimatch.ReadHypergraph,
		semimatch.ErrLimit, semimatch.ErrCancelled,
		semimatch.ErrServiceOverloaded, semimatch.ErrUnknownAlgorithm,
		semimatch.ErrVerifyFailed,
	}
	// Constants of the pre-redesign surface.
	_ = []any{
		semimatch.ClassSingleProc, semimatch.ClassMultiProc,
		semimatch.KindHeuristic, semimatch.KindExact, semimatch.KindOnline,
		semimatch.CostNearLinear, semimatch.CostPolynomial, semimatch.CostExponential,
		semimatch.HiLo, semimatch.FewgManyg, semimatch.Unit, semimatch.Related, semimatch.Random,
		semimatch.SGH, semimatch.EGH, semimatch.VGH,
		semimatch.ExpectedVectorGreedy, semimatch.ExactSchedule,
		semimatch.WitnessNone, semimatch.WitnessAverageLoad,
		semimatch.WitnessMaxElement, semimatch.WitnessExhaustive,
		semimatch.WitnessPacking, semimatch.WitnessMatching,
		semimatch.TierHeuristic, semimatch.TierAttested, semimatch.TierVerified,
	}
}

// TestCompatCertificates: the proof-carrying surface exposed at the
// root — every Run report carries a certificate Verify independently
// accepts, WithVerify grades the trust tier, and a forged certificate
// is rejected, never believed.
func TestCompatCertificates(t *testing.T) {
	h := seededHyper(t, 23, 9)
	rep, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
		semimatch.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Certificate
	if c == nil {
		t.Fatal("Run report carries no certificate")
	}
	tier, err := semimatch.Verify(h, c)
	if err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	if tier != rep.Trust {
		t.Fatalf("Verify tier %s, report trust %s", tier, rep.Trust)
	}
	if rep.Status == semimatch.StatusOptimal {
		if c.Witness.Kind == semimatch.WitnessNone || tier < semimatch.TierAttested {
			t.Fatalf("optimal report: witness %s, tier %s", c.Witness.Kind, tier)
		}
	}
	avg, maxElem, err := semimatch.CertBounds(h)
	if err != nil {
		t.Fatal(err)
	}
	if avg > rep.Makespan || maxElem > rep.Makespan {
		t.Fatalf("class bounds (%d, %d) exceed makespan %d", avg, maxElem, rep.Makespan)
	}

	forged := *c
	forged.Makespan--
	if _, err := semimatch.Verify(h, &forged); err == nil {
		t.Fatal("forged certificate accepted")
	}
}
