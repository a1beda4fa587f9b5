package semimatch_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"semimatch"
)

// TestPublicAPIEndToEnd walks the README workflow through the facade:
// build, solve, inspect, persist, reload, re-solve.
func TestPublicAPIEndToEnd(t *testing.T) {
	// SINGLEPROC via the graph builder.
	gb := semimatch.NewGraphBuilder(3, 2)
	gb.AddEdge(0, 0)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 0)
	gb.AddEdge(2, 1)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, opt, err := semimatch.ExactUnit(g)
	if err != nil {
		t.Fatal(err)
	}
	// T1 forces P0 and T2 forces P1, so T0 doubles one of them: OPT = 2.
	if opt != 2 {
		t.Fatalf("opt = %d, want 2", opt)
	}
	if err := semimatch.ValidateAssignment(g, a); err != nil {
		t.Fatal(err)
	}
	if m := semimatch.Makespan(g, semimatch.SortedGreedy(g)); m < opt {
		t.Fatalf("greedy %d below optimum %d", m, opt)
	}

	// Round-trip through the text format.
	var buf bytes.Buffer
	if err := semimatch.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := semimatch.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost edges")
	}

	// MULTIPROC via the hypergraph builder.
	hb := semimatch.NewHypergraphBuilder(2, 3)
	hb.AddEdge(0, []int{0}, 4)
	hb.AddEdge(0, []int{1, 2}, 2)
	hb.AddEdge(1, []int{2}, 3)
	h, err := hb.Build()
	if err != nil {
		t.Fatal(err)
	}
	lb := semimatch.LowerBound(h)
	ha := semimatch.ExpectedVectorGreedyHyp(h)
	if err := semimatch.ValidateHyperAssignment(h, ha); err != nil {
		t.Fatal(err)
	}
	if m := semimatch.HyperMakespan(h, ha); m < lb {
		t.Fatalf("makespan %d below lower bound %d", m, lb)
	}
	exactRep, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
		semimatch.WithAlgorithm("BnB-MP"))
	if err != nil {
		t.Fatal(err)
	}
	if optH := exactRep.Makespan; exactRep.Status != semimatch.StatusOptimal || optH < lb {
		t.Fatalf("optimal %d below LB %d", optH, lb)
	}

	var hbuf bytes.Buffer
	if err := semimatch.WriteHypergraph(&hbuf, h); err != nil {
		t.Fatal(err)
	}
	if _, err := semimatch.ReadHypergraph(&hbuf); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulingFrontEnd(t *testing.T) {
	in := semimatch.NewInstance("p0", "p1")
	in.AddTask("a",
		semimatch.Config{Procs: []int{0}, Time: 2},
		semimatch.Config{Procs: []int{0, 1}, Time: 1})
	in.AddTask("b", semimatch.Config{Procs: []int{1}, Time: 2})
	s, err := semimatch.Solve(in, semimatch.ExactSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimal() {
		t.Fatal("exact schedule must be optimal")
	}
	tl := s.Simulate()
	if err := tl.Validate(s); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tl.Gantt(&sb, s)
	if !strings.Contains(sb.String(), "p0") {
		t.Fatalf("gantt output:\n%s", sb.String())
	}
}

// TestReadmeQuickStartProvenOptimal solves the README's quick-start
// instance as the README does. EVG's makespan 6 is encode's only
// configuration, so the max-element bound proves it optimal, and the
// schedule's certificate says so to an independent verifier.
func TestReadmeQuickStartProvenOptimal(t *testing.T) {
	in := semimatch.NewInstance("cpu0", "cpu1", "gpu")
	in.AddTask("render",
		semimatch.Config{Procs: []int{0}, Time: 8},
		semimatch.Config{Procs: []int{0, 2}, Time: 3})
	in.AddTask("encode", semimatch.Config{Procs: []int{1}, Time: 6})
	s, err := semimatch.Solve(in, semimatch.ExpectedVectorGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 6 || !s.Optimal() || s.Status != semimatch.StatusOptimal {
		t.Fatalf("makespan %d, status %v; want 6, optimal", s.Makespan, s.Status)
	}
	h, err := in.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	if s.Certificate == nil {
		t.Fatal("schedule carries no certificate")
	}
	tier, err := semimatch.Verify(h, s.Certificate)
	if err != nil || tier != semimatch.TierVerified {
		t.Fatalf("Verify = %v, %v; want %v", tier, err, semimatch.TierVerified)
	}
}

func TestGeneratorsThroughFacade(t *testing.T) {
	h, err := semimatch.GenerateHypergraph(semimatch.HyperParams{
		Gen: semimatch.FewgManyg, N: 100, P: 16, Dv: 3, Dh: 4, G: 4,
		Weights: semimatch.Related,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.NTasks != 100 {
		t.Fatalf("NTasks = %d", h.NTasks)
	}
	g, err := semimatch.GenerateBipartite(semimatch.HiLo, 64, 16, 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NLeft != 64 {
		t.Fatalf("NLeft = %d", g.NLeft)
	}
}

func TestExtensionsThroughFacade(t *testing.T) {
	h, err := semimatch.GenerateHypergraph(semimatch.HyperParams{
		Gen: semimatch.FewgManyg, N: 200, P: 16, Dv: 3, Dh: 4, G: 4,
		Weights: semimatch.Random, MaxW: 20,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The refined heuristic race (the auto policy with its exact stage
	// off) beats or ties every member, and refinement never hurts.
	res, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
		semimatch.WithRefine(), semimatch.WithExactLimit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := semimatch.ValidateHyperAssignment(h, res.Assignment); err != nil {
		t.Fatal(err)
	}
	sgh := semimatch.HyperMakespan(h, semimatch.SortedGreedyHyp(h))
	if res.Makespan > sgh {
		t.Fatalf("portfolio %d worse than SGH %d", res.Makespan, sgh)
	}
	// Refinement of one named heuristic.
	r, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
		semimatch.WithAlgorithm("SGH"), semimatch.WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan > sgh {
		t.Fatalf("refine worsened: %d → %d", sgh, r.Makespan)
	}
	// Exact-arithmetic variant.
	ax, err := semimatch.ExpectedVectorGreedyHypExact(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := semimatch.ValidateHyperAssignment(h, ax); err != nil {
		t.Fatal(err)
	}
	// Online scheduling on the Chain family realizes ratio k.
	g := semimatch.Chain(5)
	ratio, err := semimatch.OnlineCompetitiveRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 5 {
		t.Fatalf("online ratio on Chain(5) = %v, want 5", ratio)
	}
	s := semimatch.NewOnlineScheduler(2)
	if _, err := s.Assign([]int32{0, 1}, 3); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 3 {
		t.Fatalf("online makespan = %d", s.Makespan())
	}
}

func TestAdversarialThroughFacade(t *testing.T) {
	g := semimatch.Chain(4)
	sorted := semimatch.Makespan(g, semimatch.SortedGreedy(g))
	_, opt, err := semimatch.ExactUnit(g)
	if err != nil {
		t.Fatal(err)
	}
	if sorted != 4 || opt != 1 {
		t.Fatalf("Chain(4): sorted=%d opt=%d, want 4 and 1", sorted, opt)
	}
	if semimatch.Fig1().NLeft != 2 {
		t.Fatal("Fig1 shape")
	}
	x := semimatch.X3C{Q: 1, Sets: [][3]int{{0, 1, 2}}}
	h, err := x.ToMultiproc()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
		semimatch.WithAlgorithm("BnB-MP"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != semimatch.StatusOptimal || rep.Makespan != 1 {
		t.Fatalf("trivial X3C optimal = %d (%s)", rep.Makespan, rep.Status)
	}
}

// TestBatchAndContextFacade exercises the context-aware entry points
// through the public API: SolveProblems over a generated workload, and a
// cancelled branch-and-bound returning its incumbent as StatusTruncated.
func TestBatchAndContextFacade(t *testing.T) {
	var instances []*semimatch.Hypergraph
	var problems []semimatch.Problem
	for seed := int64(1); seed <= 8; seed++ {
		h, err := semimatch.GenerateHypergraph(semimatch.HyperParams{
			Gen: semimatch.FewgManyg, N: 60, P: 8, Dv: 3, Dh: 4, G: 4,
			Weights: semimatch.Related,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, h)
		problems = append(problems, semimatch.HypergraphProblem(h))
	}
	outcomes, err := semimatch.SolveProblems(context.Background(), problems, semimatch.WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("instance %d: %v", i, o.Err)
		}
		r := o.Report
		if err := semimatch.ValidateHyperAssignment(instances[i], r.Assignment); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if lb := semimatch.LowerBound(instances[i]); r.Makespan < lb {
			t.Fatalf("instance %d: makespan %d below LB %d", i, r.Makespan, lb)
		}
	}

	// A cancelled context truncates the search but still yields a valid
	// incumbent schedule.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := semimatch.Run(ctx, problems[0], semimatch.WithAlgorithm("BnB-MP"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status == semimatch.StatusOptimal {
		t.Skip("solved before the first context poll")
	}
	if rep.Status != semimatch.StatusTruncated {
		t.Fatalf("status = %s, want truncated", rep.Status)
	}
	if err := semimatch.ValidateHyperAssignment(instances[0], rep.Assignment); err != nil {
		t.Fatal(err)
	}
	if semimatch.HyperMakespan(instances[0], rep.Assignment) != rep.Makespan {
		t.Fatal("incumbent makespan mismatch")
	}
}

// TestSolverDiscovery exercises the public registry facade: the catalog
// enumerates every solver, lookups resolve names and aliases, and the
// looked-up solver actually solves.
func TestSolverDiscovery(t *testing.T) {
	solvers := semimatch.Solvers()
	if len(solvers) < 16 {
		t.Fatalf("catalog too small: %d solvers", len(solvers))
	}
	classes := map[semimatch.SolverClass]int{}
	for _, s := range solvers {
		classes[s.Class]++
	}
	if classes[semimatch.ClassSingleProc] == 0 || classes[semimatch.ClassMultiProc] == 0 {
		t.Fatalf("catalog missing a class: %v", classes)
	}

	sol, err := semimatch.LookupSolver("evg")
	if err != nil || sol.Name != "EVG" {
		t.Fatalf("LookupSolver(evg) = %v, %v", sol, err)
	}
	if sol.Kind != semimatch.KindHeuristic || sol.Class != semimatch.ClassMultiProc {
		t.Fatalf("EVG capability metadata wrong: %v/%v", sol.Class, sol.Kind)
	}
	if _, err := semimatch.LookupSolver("no-such-solver"); err == nil {
		t.Fatal("unknown solver must error")
	}
	exact, err := semimatch.LookupClassSolver(semimatch.ClassSingleProc, "exact")
	if err != nil || exact.Name != "ExactUnit" || exact.Kind != semimatch.KindExact {
		t.Fatalf("LookupClassSolver(SINGLEPROC, exact) = %v, %v", exact, err)
	}

	b := semimatch.NewHypergraphBuilder(2, 2)
	b.AddEdge(0, []int{0}, 2)
	b.AddEdge(0, []int{0, 1}, 1)
	b.AddEdge(1, []int{1}, 3)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := sol.SolveHyper(context.Background(), h, semimatch.BnBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := semimatch.ValidateHyperAssignment(h, a); err != nil {
		t.Fatal(err)
	}
}

// TestServiceFacade drives the solving-as-a-service public API:
// fingerprinting, NewService, cached solves.
func TestServiceFacade(t *testing.T) {
	b1 := semimatch.NewHypergraphBuilder(2, 2)
	b1.AddEdge(0, []int{0}, 2)
	b1.AddEdge(0, []int{0, 1}, 1)
	b1.AddEdge(1, []int{1}, 3)
	h1, err := b1.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Isomorph: same instance, configurations inserted in reverse order.
	b2 := semimatch.NewHypergraphBuilder(2, 2)
	b2.AddEdge(0, []int{1, 0}, 1)
	b2.AddEdge(0, []int{0}, 2)
	b2.AddEdge(1, []int{1}, 3)
	h2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := semimatch.Fingerprint(h1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := semimatch.Fingerprint(h2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 == "" || f1 != f2 {
		t.Fatalf("isomorph fingerprints differ: %q vs %q", f1, f2)
	}
	if _, err := semimatch.Fingerprint("nope"); err == nil {
		t.Fatal("Fingerprint must reject unsupported types")
	}

	svc := semimatch.NewService(semimatch.ServiceOptions{})
	r1, err := svc.Solve(context.Background(), h1, "")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != f1 {
		t.Fatalf("service fingerprint %q, want %q", r1.Fingerprint, f1)
	}
	if !r1.Optimal || r1.Makespan != 3 {
		t.Fatalf("auto policy on a 2-task instance: %+v", r1)
	}
	r2, err := svc.Solve(context.Background(), h2, "")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Makespan != r1.Makespan {
		t.Fatalf("isomorph should be a cache hit: %+v", r2)
	}
	if err := semimatch.ValidateHyperAssignment(h2, semimatch.HyperAssignment(r2.Assignment)); err != nil {
		t.Fatalf("cache-served assignment invalid for the isomorph: %v", err)
	}
	if _, err := svc.Solve(context.Background(), h1, "no-such"); !errors.Is(err, semimatch.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if st := svc.Stats(); st.Solves != 1 || st.CacheHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
