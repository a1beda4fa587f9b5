package exact

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
)

// The equivalence suite: the parallel engine must return the same optimal
// makespan as the sequential solvers over a seeded random grid — SP and
// MP, unit and weighted, across worker counts — and must degrade the same
// way (ErrLimit with a valid incumbent) under tight node budgets.

func TestParSingleProcMatchesSequentialGrid(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 40; trial++ {
			var g *bipartite.Graph
			if trial%2 == 0 {
				g = randomUnitGraph(rng, 1+rng.Intn(14), 1+rng.Intn(6), 4)
			} else {
				g = randomWeightedGraph(rng, 1+rng.Intn(12), 1+rng.Intn(5), 4, 9)
			}
			_, want, err := SolveSingleProc(context.Background(), g, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			a, got, err := SolveSingleProc(context.Background(), g, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d trial=%d: %v", workers, trial, err)
			}
			if err := core.ValidateAssignment(g, a); err != nil {
				t.Fatalf("workers=%d trial=%d: invalid assignment: %v", workers, trial, err)
			}
			if m := core.Makespan(g, a); m != got {
				t.Fatalf("workers=%d trial=%d: reported %d != assignment makespan %d", workers, trial, got, m)
			}
			if got != want {
				t.Fatalf("workers=%d trial=%d: parallel %d, sequential %d", workers, trial, got, want)
			}
		}
	}
}

func TestParMultiProcMatchesSequentialGrid(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(202))
		for trial := 0; trial < 40; trial++ {
			maxW := int64(1) // unit
			if trial%2 == 1 {
				maxW = 8
			}
			h := randomHyper(rng, 1+rng.Intn(11), 1+rng.Intn(5), 3, 3, maxW)
			_, want, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			a, got, err := SolveMultiProc(context.Background(), h, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d trial=%d: %v", workers, trial, err)
			}
			if err := core.ValidateHyperAssignment(h, a); err != nil {
				t.Fatalf("workers=%d trial=%d: invalid assignment: %v", workers, trial, err)
			}
			if m := core.HyperMakespan(h, a); m != got {
				t.Fatalf("workers=%d trial=%d: reported %d != assignment makespan %d", workers, trial, got, m)
			}
			if got != want {
				t.Fatalf("workers=%d trial=%d: parallel %d, sequential %d", workers, trial, got, want)
			}
		}
	}
}

// Instances built to be rich in interchangeable processors exercise the
// symmetry-breaking prune specifically.
func TestParSymmetricProcessors(t *testing.T) {
	// SP: complete bipartite with per-task weights — every processor has an
	// identical incidence row, so all of them form one symmetry group.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n, p := 6+rng.Intn(6), 2+rng.Intn(4)
		b := bipartite.NewBuilder(n, p)
		for t2 := 0; t2 < n; t2++ {
			w := 1 + rng.Int63n(9)
			for v := 0; v < p; v++ {
				b.AddWeightedEdge(t2, v, w)
			}
		}
		g := b.MustBuild()
		_, want, err := SolveSingleProc(context.Background(), g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := SolveSingleProc(context.Background(), g, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: parallel %d, sequential %d", trial, got, want)
		}
	}

	// MP: each task offers one singleton configuration per processor, all
	// with the same weight — the full symmetric group over processors.
	for trial := 0; trial < 10; trial++ {
		n, p := 5+rng.Intn(5), 2+rng.Intn(4)
		hb := hypergraph.NewBuilder(n, p)
		for t2 := 0; t2 < n; t2++ {
			w := 1 + rng.Int63n(7)
			for v := 0; v < p; v++ {
				hb.AddEdge(t2, []int{v}, w)
			}
		}
		h := hb.MustBuild()
		_, want, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := SolveMultiProc(context.Background(), h, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: parallel %d, sequential %d", trial, got, want)
		}
	}
}

// Under a node budget far too small for the search, the sequential and
// parallel solvers must both report ErrLimit while still returning a
// valid complete incumbent whose makespan matches the reported value.
func TestParTightBudgetConsistentErrLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gSP := randomWeightedGraph(rng, 26, 6, 5, 50)
	gMP := randomHyper(rng, 26, 6, 4, 3, 50)
	opts := Options{MaxNodes: 48, Workers: 1}

	_, mSeq, errSeq := SolveSingleProc(context.Background(), gSP, opts)
	if !errors.Is(errSeq, ErrLimit) {
		t.Fatalf("sequential SP: want ErrLimit, got %v", errSeq)
	}
	for _, workers := range []int{1, 4} {
		a, m, err := SolveSingleProc(context.Background(), gSP, Options{MaxNodes: 48, Workers: workers})
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("parallel SP workers=%d: want ErrLimit, got %v", workers, err)
		}
		if vErr := core.ValidateAssignment(gSP, a); vErr != nil {
			t.Fatalf("parallel SP workers=%d: incumbent invalid: %v", workers, vErr)
		}
		if core.Makespan(gSP, a) != m {
			t.Fatalf("parallel SP workers=%d: reported %d != incumbent makespan", workers, m)
		}
	}
	_ = mSeq

	_, _, errSeqMP := SolveMultiProc(context.Background(), gMP, opts)
	if !errors.Is(errSeqMP, ErrLimit) {
		t.Fatalf("sequential MP: want ErrLimit, got %v", errSeqMP)
	}
	for _, workers := range []int{1, 4} {
		a, m, err := SolveMultiProc(context.Background(), gMP, Options{MaxNodes: 48, Workers: workers})
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("parallel MP workers=%d: want ErrLimit, got %v", workers, err)
		}
		if vErr := core.ValidateHyperAssignment(gMP, a); vErr != nil {
			t.Fatalf("parallel MP workers=%d: incumbent invalid: %v", workers, vErr)
		}
		if core.HyperMakespan(gMP, a) != m {
			t.Fatalf("parallel MP workers=%d: reported %d != incumbent makespan", workers, m)
		}
	}
}

// A small user budget must actually be spendable: claim blocks scale
// down with MaxNodes and unspent claims are refunded, so the parallel
// engine completes searches that fit comfortably inside the budget
// instead of stranding it inside per-worker claims.
func TestParSmallBudgetNotStranded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := randomHyper(rng, 10, 4, 3, 3, 7)
	var st SearchStats
	if _, _, err := SolveMultiProc(context.Background(), h, Options{Workers: 4, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	budget := 4*st.Nodes + 256 // generous headroom over the engine's own need
	a, m, err := SolveMultiProc(context.Background(), h, Options{MaxNodes: budget, Workers: 4})
	if err != nil {
		t.Fatalf("budget %d (engine needs ~%d nodes) still tripped: %v", budget, st.Nodes, err)
	}
	if vErr := core.ValidateHyperAssignment(h, a); vErr != nil {
		t.Fatal(vErr)
	}
	_, want, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m != want {
		t.Fatalf("optimum %d != sequential %d", m, want)
	}
}

func TestParCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	h := randomHyper(rng, 24, 6, 4, 3, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, m, err := SolveMultiProc(ctx, h, Options{Workers: 4})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCancelled wrapping context.Canceled, got %v", err)
	}
	if vErr := core.ValidateHyperAssignment(h, a); vErr != nil {
		t.Fatalf("incumbent invalid after cancel: %v", vErr)
	}
	if core.HyperMakespan(h, a) != m {
		t.Fatalf("reported %d != incumbent makespan", m)
	}
}

func TestParTrivialInstances(t *testing.T) {
	// Zero tasks.
	g := bipartite.NewBuilder(0, 3).MustBuild()
	if a, m, err := SolveSingleProc(context.Background(), g, Options{}); err != nil || m != 0 || len(a) != 0 {
		t.Fatalf("empty SP: got (%v, %d, %v)", a, m, err)
	}
	// No processors.
	gBad := bipartite.NewBuilder(2, 0)
	if _, _, err := SolveSingleProc(context.Background(), gBad.MustBuild(), Options{}); err == nil {
		t.Fatal("no processors: want error")
	}
	// Single task.
	b := bipartite.NewBuilder(1, 2)
	b.AddWeightedEdge(0, 0, 7)
	b.AddWeightedEdge(0, 1, 3)
	_, m, err := SolveSingleProc(context.Background(), b.MustBuild(), Options{Workers: 4})
	if err != nil || m != 3 {
		t.Fatalf("single task: got (%d, %v), want (3, nil)", m, err)
	}
}

func TestParStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHyper(rng, 14, 5, 3, 3, 9)
	var seqStats, parStats SearchStats
	if _, _, err := SolveMultiProc(context.Background(), h, Options{Workers: 1, Stats: &seqStats}); err != nil {
		t.Fatal(err)
	}
	if seqStats.Nodes <= 0 || seqStats.Workers != 1 {
		t.Fatalf("sequential stats not populated: %+v", seqStats)
	}
	if _, _, err := SolveMultiProc(context.Background(), h, Options{Workers: 4, Stats: &parStats}); err != nil {
		t.Fatal(err)
	}
	if parStats.Nodes <= 0 || parStats.Workers != 4 || parStats.Subproblems <= 0 {
		t.Fatalf("parallel stats not populated: %+v", parStats)
	}
}

// TestParRaceStress drives the concurrency paths (steals, re-splits,
// concurrent incumbent offers) hard enough for the race detector to see
// them; CI runs this package under -race.
func TestParRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	h := randomHyper(rng, 18, 5, 3, 3, 12)
	_, want, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		var st SearchStats
		_, got, err := SolveMultiProc(context.Background(), h, Options{Workers: 8, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: parallel %d, sequential %d", trial, got, want)
		}
	}
}
