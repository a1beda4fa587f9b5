package service

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/encode"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
	"semimatch/internal/solve"
)

// weightedGraph is a random weighted SINGLEPROC instance: each task gets
// 1–3 distinct processors with weights in [1, maxW].
func weightedGraph(seed int64, nTasks, nProcs int, maxW int64) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(nTasks, nProcs)
	for task := 0; task < nTasks; task++ {
		d := 1 + rng.Intn(3)
		perm := rng.Perm(nProcs)
		for j := 0; j < d && j < nProcs; j++ {
			b.AddWeightedEdge(task, perm[j], 1+rng.Int63n(maxW))
		}
	}
	return b.MustBuild()
}

// agreementCase is one instance the service's auto policy must answer
// exactly as solve.Run does.
type agreementCase struct {
	name     string
	instance any
	problem  solve.Problem
}

// agreementCases: the root compat suite's seeds (unit and weighted
// SINGLEPROC, MULTIPROC above and below the exact-attempt limit) plus a
// weighted SINGLEPROC grid on both sides of that limit.
func agreementCases(t *testing.T) []agreementCase {
	t.Helper()
	var cases []agreementCase
	addGraph := func(name string, g *bipartite.Graph) {
		cases = append(cases, agreementCase{name, g, solve.Bipartite(g)})
	}
	for seed := int64(0); seed < 3; seed++ {
		g, err := gen.Bipartite(gen.FewgManyg, 40, 8, 4, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		addGraph(fmt.Sprintf("unit/seed=%d", seed), g)
		addGraph(fmt.Sprintf("weighted-12x4/seed=%d", seed), weightedGraph(seed, 12, 4, 9))
	}
	for _, n := range []int{12, 16, 20} {
		for seed := int64(0); seed < 8; seed++ {
			p, maxW := 4+int(seed%2), int64(9)
			if seed >= 4 {
				maxW = 30
			}
			addGraph(fmt.Sprintf("grid-%dx%d-w%d/seed=%d", n, p, maxW, seed), weightedGraph(seed, n, p, maxW))
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, hc := range []struct{ seed, n int64 }{{seed, 40}, {seed + 10, 12}} {
			h := compatHyper(t, hc.seed, int(hc.n))
			cases = append(cases, agreementCase{fmt.Sprintf("hyper-%d/seed=%d", hc.n, hc.seed), h, solve.Hyper(h)})
		}
	}
	return cases
}

// compatHyper is the root compat suite's seededHyper.
func compatHyper(t *testing.T, seed int64, n int) *hypergraph.Hypergraph {
	t.Helper()
	h, err := gen.Hypergraph(gen.HyperParams{
		Gen: gen.FewgManyg, N: n, P: 6, Dv: 3, Dh: 2, G: 3,
		Weights: gen.Random, MaxW: 9,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestServiceAutoMatchesRun: an auto request to the service and Run's
// auto policy on the same instance report the same makespan and
// optimality — the two front ends mean one thing by "auto".
func TestServiceAutoMatchesRun(t *testing.T) {
	ctx := context.Background()
	s := New(Options{})
	for _, c := range agreementCases(t) {
		want, err := solve.Run(ctx, c.problem)
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		got, err := s.Solve(ctx, c.instance, "")
		if err != nil {
			t.Fatalf("%s: Solve: %v", c.name, err)
		}
		if got.Makespan != want.Makespan || got.Optimal != want.Optimal() {
			t.Errorf("%s: service (%d, optimal=%v) %s, Run (%d, optimal=%v) %s",
				c.name, got.Makespan, got.Optimal, got.Algorithm, want.Makespan, want.Optimal(), want.Solver)
		}
	}
}

// TestServiceRefineMatchesRun: Options.Refine gives service solves the
// refinement solve.WithRefine gives Run. Local search is sensitive to
// hyperedge order and the service solves the canonical form, so Run gets
// the canonical form too.
func TestServiceRefineMatchesRun(t *testing.T) {
	ctx := context.Background()
	h := compatHyper(t, 0, 40)
	canon, _, err := encode.CanonicalHypergraph(h)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := solve.Run(ctx, solve.Hyper(canon))
	if err != nil {
		t.Fatal(err)
	}
	want, err := solve.Run(ctx, solve.Hyper(canon), solve.WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	if want.Makespan >= plain.Makespan {
		t.Fatalf("refinement did not improve this instance (%d vs %d); pick another", want.Makespan, plain.Makespan)
	}
	got, err := New(Options{Refine: true}).Solve(ctx, h, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.Optimal != want.Optimal() {
		t.Fatalf("service with Refine (%d, optimal=%v), Run WithRefine (%d, optimal=%v)",
			got.Makespan, got.Optimal, want.Makespan, want.Optimal())
	}
}
