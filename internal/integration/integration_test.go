// Package integration ties the whole system together: generate → persist
// → reload → solve with every algorithm → refine → validate → simulate.
// These tests exercise the same paths a downstream user would chain, with
// every internal package in the loop at once.
package integration

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"semimatch/internal/adversarial"
	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/encode"
	"semimatch/internal/exact"
	"semimatch/internal/flow"
	"semimatch/internal/gen"
	"semimatch/internal/matching"
	"semimatch/internal/online"
	"semimatch/internal/refine"
	"semimatch/internal/sched"
	"semimatch/internal/solve"
)

// TestHypergraphPipeline: generator → text format → every heuristic →
// refinement → portfolio → B&B sanity on a downsampled copy.
func TestHypergraphPipeline(t *testing.T) {
	for _, weights := range []gen.WeightScheme{gen.Unit, gen.Related, gen.Random} {
		h, err := gen.Hypergraph(gen.HyperParams{
			Gen: gen.FewgManyg, N: 320, P: 64, Dv: 4, Dh: 6, G: 8,
			Weights: weights, MaxW: 30,
		}, 42)
		if err != nil {
			t.Fatal(err)
		}

		// Persist and reload; the instance must survive bit-for-bit.
		var buf bytes.Buffer
		if err := encode.WriteHypergraph(&buf, h); err != nil {
			t.Fatal(err)
		}
		h2, err := encode.ReadHypergraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h.Pins, h2.Pins) || !reflect.DeepEqual(h.Weight, h2.Weight) {
			t.Fatal("persistence changed the instance")
		}

		lb := core.LowerBound(h2)
		best := int64(1) << 62
		run := map[string]core.HyperAssignment{
			"SGH": core.SortedGreedyHyp(h2),
			"VGH": core.VectorGreedyHyp(h2),
			"EGH": core.ExpectedGreedyHyp(h2),
			"EVG": core.ExpectedVectorGreedyHyp(h2),
		}
		for name, a := range run {
			if err := core.ValidateHyperAssignment(h2, a); err != nil {
				t.Fatalf("%s/%s: %v", weights, name, err)
			}
			m := core.HyperMakespan(h2, a)
			if m < lb {
				t.Fatalf("%s/%s: %d below LB %d", weights, name, m, lb)
			}
			r := refine.RefineCtx(context.Background(), h2, a, refine.Options{})
			if r.After > m {
				t.Fatalf("%s/%s: refinement worsened %d → %d", weights, name, m, r.After)
			}
			if r.After < best {
				best = r.After
			}
		}
		// The refined portfolio (the auto policy's race, exact stage
		// off) ties or beats the best individual run.
		res, err := solve.Run(context.Background(), solve.Hyper(h2), solve.WithRefine(), solve.WithExactLimit(-1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > best {
			t.Fatalf("%s: portfolio %d worse than best refined %d", weights, res.Makespan, best)
		}
	}
}

// TestSingleProcPipeline: generator → persistence → four greedies + LPT →
// three exact solvers agreeing (matching-based, flow-based, B&B) → online
// replay sandwich.
func TestSingleProcPipeline(t *testing.T) {
	g, err := gen.Bipartite(gen.HiLo, 640, 64, 8, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encode.WriteBipartite(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := encode.ReadBipartite(&buf)
	if err != nil {
		t.Fatal(err)
	}

	_, d1, err := core.ExactUnit(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := core.HarveyOptimal(g2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 := core.Makespan(g2, ha); d1 != d2 {
		t.Fatalf("exact solvers disagree: ExactUnit %d, Harvey %d", d1, d2)
	}

	for name, f := range map[string]func(*bipartite.Graph) core.Assignment{
		"basic": core.BasicGreedy, "sorted": core.SortedGreedy,
		"double": core.DoubleSorted, "expected": core.ExpectedGreedy,
	} {
		a := f(g2)
		if err := core.ValidateAssignment(g2, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if core.Makespan(g2, a) < d1 {
			t.Fatalf("%s beat the optimum", name)
		}
	}
	if core.Makespan(g2, core.LPTGreedy(g2)) < d1 {
		t.Fatal("LPT beat the optimum")
	}

	// Online replay can never beat offline optimal.
	_, m, err := online.Replay(g2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m < d1 {
		t.Fatalf("online %d below optimal %d", m, d1)
	}
}

// TestTheorem1EndToEnd: the X3C reduction through the full stack —
// gadget → persistence → heuristics (must stay ≥ optimal) → B&B decision.
func TestTheorem1EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		x := adversarial.RandomX3C(rng, 3, 3, trial%2 == 0)
		h, err := x.ToMultiproc()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := encode.WriteHypergraph(&buf, h); err != nil {
			t.Fatal(err)
		}
		h2, err := encode.ReadHypergraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := solve.Run(context.Background(), solve.Hyper(h2), solve.WithAlgorithm("BnB-MP"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != solve.StatusOptimal {
			t.Fatalf("trial %d: branch and bound stopped short of a proof (%s)", trial, rep.Status)
		}
		opt := rep.Makespan
		_, hasCover := exact.SolveX3C(x)
		if hasCover != (opt == 1) {
			t.Fatalf("trial %d: cover=%v optimal=%d", trial, hasCover, opt)
		}
		a := core.ExpectedVectorGreedyHyp(h2)
		if core.HyperMakespan(h2, a) < opt {
			t.Fatal("heuristic beat the optimum")
		}
	}
}

// TestSchedulerRoundTrip: named instance → JSON → hypergraph → portfolio →
// named schedule → simulation — semisolve's JSON path as a library call.
func TestSchedulerRoundTrip(t *testing.T) {
	in := sched.NewInstance("a", "b", "c")
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 25; i++ {
		n := 1 + rng.Intn(2)
		cfgs := make([]sched.Config, n)
		for j := range cfgs {
			k := 1 + rng.Intn(3)
			cfgs[j] = sched.Config{Procs: rng.Perm(3)[:k], Time: 1 + rng.Int63n(9)}
		}
		in.AddTask("t", cfgs...)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	in2, err := sched.ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Solve(in2, sched.ExpectedVectorGreedy)
	if err != nil {
		t.Fatal(err)
	}
	tl := s.Simulate()
	if err := tl.Validate(s); err != nil {
		t.Fatal(err)
	}
}

// TestMatchingSubstrateAgreesAtScale: Hopcroft–Karp, push-relabel and
// Dinic's max flow find the same maximum matching size on a generated
// instance of paper scale.
func TestMatchingSubstrateAgreesAtScale(t *testing.T) {
	g, err := gen.Bipartite(gen.FewgManyg, 5120, 1024, 32, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := matching.Wrap(g.NLeft, g.NRight, g.Ptr, g.Adj)
	m, err := matching.HopcroftKarpCap(context.Background(), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	hk := matching.Cardinality(m)
	if pr := matching.Cardinality(matching.PushRelabel(w)); hk != pr {
		t.Fatalf("cardinalities disagree: HK=%d PR=%d", hk, pr)
	}
	// source → tasks → processors → sink, every arc of capacity 1.
	n, p := g.NLeft, g.NRight
	net := flow.NewNetwork(n + p + 2)
	s, tt := n+p, n+p+1
	for task := 0; task < n; task++ {
		net.AddArc(s, task, 1)
		for _, v := range g.Neighbors(task) {
			net.AddArc(task, n+int(v), 1)
		}
	}
	for proc := 0; proc < p; proc++ {
		net.AddArc(n+proc, tt, 1)
	}
	if fl := net.MaxFlow(s, tt); int(fl) != hk {
		t.Fatalf("flow %d vs matching %d", fl, hk)
	}
}
