package solve

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"semimatch/internal/cert"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
	"semimatch/internal/lb"
	"semimatch/internal/registry"
)

// optimalityGrid is the instance grid of the one-optimality-notion
// tests: FewgManyg hypergraphs at n ∈ {12, 16, 20, 30} (p = n/3, Dv 3,
// Dh 2, G 2) under all three weight schemes, and weighted bipartite
// graphs of the same sizes, seeds 1..seeds each.
func optimalityGrid(t *testing.T, seeds int64) map[string]Problem {
	t.Helper()
	grid := make(map[string]Problem)
	for _, n := range []int{12, 16, 20, 30} {
		for seed := int64(1); seed <= seeds; seed++ {
			for _, w := range []gen.WeightScheme{gen.Unit, gen.Related, gen.Random} {
				h, err := gen.Hypergraph(gen.HyperParams{
					Gen: gen.FewgManyg, N: n, P: n / 3, Dv: 3, Dh: 2, G: 2, Weights: w, MaxW: 100,
				}, seed)
				if err != nil {
					t.Fatal(err)
				}
				grid[fmt.Sprintf("hyper/n=%d/%s/seed=%d", n, w, seed)] = Hyper(h)
			}
			grid[fmt.Sprintf("bipartite/n=%d/seed=%d", n, seed)] = Bipartite(weightedGraph(seed, n, n/3, 3, 9))
		}
	}
	return grid
}

// rootBound is the strongest root bound the exact engines derive: the
// largest of the average-load, max-element, packing and matching bounds.
func rootBound(t *testing.T, p Problem) int64 {
	t.Helper()
	avg, maxElem, err := cert.Bounds(p.instance())
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hypergraph()
	if h == nil {
		h = hypergraph.FromGraph(p.Graph())
	}
	return max(avg, maxElem, lb.Packing(lb.MinPlacementsHyper(h), h.NProcs), lb.MatchingHyper(h))
}

// checkOneNotion asserts that rep's status, trust and lower bound all
// read off its certificate.
func checkOneNotion(t *testing.T, label string, p Problem, rep *Report) {
	t.Helper()
	c := rep.Certificate
	if c == nil {
		t.Fatalf("%s: no certificate", label)
	}
	witnessed := c.Witness.Kind != cert.WitnessNone
	if optimal := rep.Status == StatusOptimal; optimal != witnessed || optimal != (rep.Trust >= cert.TierAttested) {
		t.Fatalf("%s: status %s, witness %s, trust %s disagree", label, rep.Status, c.Witness.Kind, rep.Trust)
	}
	avg, maxElem, err := cert.Bounds(p.instance())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LowerBound != c.LowerBound || rep.LowerBound < max(avg, maxElem) || rep.LowerBound > rep.Makespan {
		t.Fatalf("%s: lower bound %d, certificate %d, cheap bounds %d/%d, makespan %d",
			label, rep.LowerBound, c.LowerBound, avg, maxElem, rep.Makespan)
	}
	if witnessed != (rep.LowerBound == rep.Makespan) {
		t.Fatalf("%s: witness %s with lower bound %d, makespan %d", label, c.Witness.Kind, rep.LowerBound, rep.Makespan)
	}
}

// TestOneOptimalityNotion runs the auto policy, every named heuristic
// and the branch and bound over the grid under WithVerify: a report is
// optimal exactly when its certificate has a witness, exactly when
// verification reaches TierAttested, and its lower bound is the
// certificate's. A branch and bound that completes is certified with a
// witness, one its node budget stops is certified with none, and its
// root bound is the strongest of the four.
func TestOneOptimalityNotion(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 5
	}
	const bnbBudget = 20_000
	grid := optimalityGrid(t, seeds)
	names := make([]string, 0, len(grid))
	for name := range grid {
		names = append(names, name)
	}
	slices.Sort(names)
	searches := map[bool]int{} // branch-and-bound runs by completion
	for _, name := range names {
		p := grid[name]
		algs := append([]string{""}, registry.Names(registry.Heuristics(p.Class()))...)
		for _, alg := range append(algs, "bnb") {
			opts := []Option{WithVerify(), WithWorkers(1), WithAlgorithm(alg)}
			if alg == "bnb" {
				opts = append(opts, WithNodeBudget(bnbBudget))
			}
			rep, err := Run(context.Background(), p, opts...)
			if err != nil {
				t.Fatalf("%s %q: %v", name, alg, err)
			}
			label := fmt.Sprintf("%s %q", name, alg)
			checkOneNotion(t, label, p, rep)
			if alg != "bnb" {
				continue
			}
			complete := rep.Stats.Nodes < bnbBudget
			if complete != (rep.Status == StatusOptimal) {
				t.Fatalf("%s: %d nodes of %d, status %s", label, rep.Stats.Nodes, bnbBudget, rep.Status)
			}
			searches[complete]++
			if want := rootBound(t, p); rep.Stats.Bound != want {
				t.Fatalf("%s: search bound %d, want the strongest root bound %d", label, rep.Stats.Bound, want)
			}
		}
	}
	if searches[true] == 0 || searches[false] == 0 {
		t.Fatalf("grid exercised %d complete and %d budget-stopped searches, want both", searches[true], searches[false])
	}
}

// TestNodeBudgetStopIsHeuristic: a search its node budget stops, with no
// deadline, is complete and deterministic — heuristic, not truncated —
// and three runs at one worker return the same answer.
func TestNodeBudgetStopIsHeuristic(t *testing.T) {
	for _, p := range []Problem{Hyper(hardHyper(5)), Bipartite(weightedGraph(11, 18, 4, 4, 50))} {
		var first *Report
		for run := 0; run < 3; run++ {
			rep, err := Run(context.Background(), p, WithAlgorithm("bnb"), WithNodeBudget(5), WithWorkers(1), WithVerify())
			if err != nil {
				t.Fatal(err)
			}
			checkOneNotion(t, p.String(), p, rep)
			if rep.Status != StatusHeuristic {
				t.Fatalf("%s: status %s, want heuristic", p, rep.Status)
			}
			if first == nil {
				first = rep
				continue
			}
			if rep.Makespan != first.Makespan || !slices.Equal(rep.Assignment, first.Assignment) ||
				rep.LowerBound != first.LowerBound || rep.Stats.Nodes != first.Stats.Nodes {
				t.Fatalf("%s: run %d differs: makespan %d/%d, bound %d/%d, nodes %d/%d", p, run,
					rep.Makespan, first.Makespan, rep.LowerBound, first.LowerBound, rep.Stats.Nodes, first.Stats.Nodes)
			}
		}
	}
}

// TestExpiredDeadlineIsTruncated: a deadline that expires mid-search
// leaves an unproven schedule truncated, auto policy and named search
// alike.
func TestExpiredDeadlineIsTruncated(t *testing.T) {
	p := Hyper(hardHyper(6))
	for _, alg := range []string{"", "bnb"} {
		rep, err := Run(context.Background(), p, WithAlgorithm(alg), WithExactLimit(64),
			WithNodeBudget(1<<60), WithDeadline(20*time.Millisecond), WithVerify())
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		checkOneNotion(t, fmt.Sprintf("%q", alg), p, rep)
		if rep.Status != StatusTruncated {
			t.Fatalf("%q: status %s, want truncated", alg, rep.Status)
		}
	}
}
