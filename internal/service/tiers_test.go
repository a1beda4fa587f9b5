package service

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"semimatch/internal/cert"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
	"semimatch/internal/solve"
)

// agreementGrid is FewgManyg hypergraphs at n ∈ {12, 16, 20, 30, 60}
// (p = n/3, Dv 3, Dh 2, G 2) under all three weight schemes, and
// weighted bipartite graphs of the same sizes, seeds 1..seeds each. At
// 40 seeds its hypergraphs are the grid on which heuristic schedules
// that meet the average-load bound used to read heuristic.
func agreementGrid(t *testing.T, seeds int64) map[string]any {
	t.Helper()
	grid := make(map[string]any)
	for _, n := range []int{12, 16, 20, 30, 60} {
		for seed := int64(1); seed <= seeds; seed++ {
			for _, w := range []gen.WeightScheme{gen.Unit, gen.Related, gen.Random} {
				h, err := gen.Hypergraph(gen.HyperParams{
					Gen: gen.FewgManyg, N: n, P: n / 3, Dv: 3, Dh: 2, G: 2, Weights: w, MaxW: 100,
				}, seed)
				if err != nil {
					t.Fatal(err)
				}
				grid[fmt.Sprintf("hyper/n=%d/%s/seed=%d", n, w, seed)] = h
			}
			grid[fmt.Sprintf("bipartite/n=%d/seed=%d", n, seed)] = weightedGraph(seed, n, n/3, 9)
		}
	}
	return grid
}

// TestTiersAgreeOnOptimality: for every grid instance, the fresh auto
// answer, the answer a restarted service serves from disk and the answer
// a replica adopts from its owning peer agree on Optimal, LowerBound and
// Trust — and Optimal is exactly the certificate's witness. The peer
// serves the older format with its optimal field flipped and its
// lower_bound zeroed; admission must not read either.
func TestTiersAgreeOnOptimality(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 4
	}
	grid := agreementGrid(t, seeds)
	dir := t.TempDir()
	fresh := New(Options{CacheDir: dir})
	answers := make(map[string]*Result, len(grid))
	for name, inst := range grid {
		r, err := fresh.Solve(context.Background(), inst, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Tier != "none" || r.Truncated {
			t.Fatalf("%s: fresh answer tier %q truncated %v", name, r.Tier, r.Truncated)
		}
		if r.Optimal != (r.Certificate.Witness.Kind != cert.WitnessNone) {
			t.Fatalf("%s: optimal %v with witness %s", name, r.Optimal, r.Certificate.Witness.Kind)
		}
		answers[name] = r
	}

	disk := New(Options{CacheDir: dir})
	peer := New(Options{Peers: &fakePeers{
		owner: "http://replica-a:8080",
		fetch: func(ctx context.Context, _, key string) (*PeerEntry, bool, error) {
			e, ok := fresh.PeerLookup(key)
			if !ok {
				return nil, false, nil
			}
			return overWire(oldFormatEntry{
				PeerEntry: *e,
				Optimal:   e.Certificate.Witness.Kind == cert.WitnessNone,
			})
		},
	}})
	for name, inst := range grid {
		want := answers[name]
		for tier, s := range map[string]*Service{"disk": disk, "peer": peer} {
			r, err := s.Solve(context.Background(), inst, "")
			if err != nil {
				t.Fatalf("%s from %s: %v", name, tier, err)
			}
			if r.Tier != tier {
				t.Fatalf("%s: answered from %q, want %q", name, r.Tier, tier)
			}
			if r.Optimal != want.Optimal || r.LowerBound != want.LowerBound || r.Trust != want.Trust || r.Makespan != want.Makespan {
				t.Fatalf("%s: %s answer optimal=%v bound=%d trust=%s makespan=%d, fresh optimal=%v bound=%d trust=%s makespan=%d",
					name, tier, r.Optimal, r.LowerBound, r.Trust, r.Makespan, want.Optimal, want.LowerBound, want.Trust, want.Makespan)
			}
		}
	}
}

// TestBudgetStoppedResultIsCached: a Report its node budget stopped,
// with no deadline, is not truncated; certify grades it heuristic with
// the certificate's bound, and the service admits it to the memory
// cache like any complete answer.
func TestBudgetStoppedResultIsCached(t *testing.T) {
	b := hypergraph.NewBuilder(24, 3)
	rng := rand.New(rand.NewSource(5))
	for task := 0; task < 24; task++ {
		w := 100_000_000 + rng.Int63n(900_000_000)
		for p := 0; p < 3; p++ {
			b.AddEdge(task, []int{p}, w)
		}
	}
	h := b.MustBuild()

	s := New(Options{})
	s.solveFn = func(ctx context.Context, req *request) (*Result, error) {
		rep, err := solve.RunOptions(ctx, req.problem(), solve.Options{Algorithm: req.alg, NodeBudget: 5, Workers: 1})
		if rep == nil {
			return nil, err
		}
		if rep.Status != solve.StatusHeuristic {
			t.Errorf("budget-stopped report status %s, want heuristic", rep.Status)
		}
		res := req.result(rep, err)
		if res.Truncated {
			t.Error("budget-stopped result flagged truncated")
		}
		if err := req.certify(res); err != nil {
			t.Errorf("certify: %v", err)
		}
		if res.Optimal || res.Trust != cert.TierHeuristic || res.LowerBound != rep.LowerBound {
			t.Errorf("certify: optimal=%v trust=%s bound=%d, want heuristic with the report's bound %d",
				res.Optimal, res.Trust, res.LowerBound, rep.LowerBound)
		}
		return res, nil
	}
	for _, want := range []string{"none", "memory"} {
		r, err := s.Solve(context.Background(), h, "bnb")
		if err != nil {
			t.Fatal(err)
		}
		if r.Tier != want {
			t.Fatalf("answered from %q, want %q", r.Tier, want)
		}
	}
	if st := s.Stats(); st.Solves != 1 || st.Truncated != 0 {
		t.Fatalf("solves=%d truncated=%d, want 1/0", st.Solves, st.Truncated)
	}
}
