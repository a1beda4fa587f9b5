package exact

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
	"semimatch/internal/telemetry"
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

// A small user budget must actually be spendable: the rounds hand it out
// node by node in subproblem order, so the parallel engine completes
// searches that fit comfortably inside the budget instead of stranding
// part of it with idle workers.
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

// TestPreCancelledSearchAlwaysCancels: a context that has ended before
// the search starts yields ErrCancelled on every run, even when the
// search needs only a few nodes and would otherwise finish before the
// goroutine watching the context first runs. The instance's optimum (11)
// lies above its root bound (9), so the search must run; with a live
// context it takes a handful of nodes.
func TestPreCancelledSearchAlwaysCancels(t *testing.T) {
	b := bipartite.NewBuilder(3, 2)
	b.AddWeightedEdge(0, 0, 2)
	b.AddWeightedEdge(0, 1, 9)
	b.AddWeightedEdge(1, 0, 9)
	b.AddWeightedEdge(1, 1, 5)
	b.AddWeightedEdge(2, 1, 6)
	g := b.MustBuild()
	var st SearchStats
	if _, m, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: &st}); err != nil || m != 11 || st.Nodes == 0 || st.Bound >= m {
		t.Fatalf("live context: makespan %d, bound %d, %d nodes, err %v; want 11 above the bound after a search", m, st.Bound, st.Nodes, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		for run := 0; run < 50; run++ {
			a, m, err := SolveSingleProc(ctx, g, Options{Workers: workers})
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("workers=%d run %d: want ErrCancelled, got %v", workers, run, err)
			}
			if vErr := core.ValidateAssignment(g, a); vErr != nil || core.Makespan(g, a) != m {
				t.Fatalf("workers=%d run %d: incumbent invalid (%v) or makespan %d misreported", workers, run, vErr, m)
			}
		}
	}
}

// TestSearchLeavesNoGoroutine: searches under a cancellable context, as
// a served request's are, leave no goroutine behind them at one worker or
// at several, and a cancellation that lands mid-search still ends the
// search with ErrCancelled and a valid incumbent.
func TestSearchLeavesNoGoroutine(t *testing.T) {
	snapshotEveryCheckpoint(t)
	rng := rand.New(rand.NewSource(55))
	h := randomHyper(rng, 12, 4, 3, 3, 9)
	hard := hardHyper()
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		for run := 0; run < 200; run++ {
			ctx, cancel := context.WithCancel(context.Background())
			var st SearchStats
			_, _, err := SolveMultiProc(ctx, h, Options{Workers: workers, Stats: &st})
			cancel()
			if err != nil || st.Nodes == 0 {
				t.Fatalf("workers=%d run %d: %d nodes, err %v; want a search", workers, run, st.Nodes, err)
			}
		}
		// A goroutine that has signalled its end may not have exited yet.
		for wait := 0; runtime.NumGoroutine() > baseline && wait < 100; wait++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("workers=%d: %d goroutines after 200 searches, %d before", workers, n, baseline)
		}

		ctx, cancel := context.WithCancel(context.Background())
		checkpoints := 0
		a, m, err := SolveMultiProc(ctx, hard, Options{
			Workers:  workers,
			MaxNodes: 1 << 60,
			Progress: func(telemetry.SearchProgress) {
				if checkpoints++; checkpoints == 3 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("workers=%d: cancelled after %d checkpoints: want ErrCancelled, got %v", workers, checkpoints, err)
		}
		if vErr := core.ValidateHyperAssignment(hard, a); vErr != nil || core.HyperMakespan(hard, a) != m {
			t.Fatalf("workers=%d: incumbent invalid (%v) or makespan %d misreported", workers, vErr, m)
		}
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
	if parStats.Nodes <= 0 || parStats.Workers != 4 {
		t.Fatalf("parallel stats not populated: %+v", parStats)
	}
}

// TestParRaceStress drives every goroutine path of the rounds search
// hard enough for the race detector to see them (CI runs this package
// under -race): rounds whose workers improve the incumbent between
// barriers, a budget that runs out mid-search, and a cancellation that
// lands mid-round.
func TestParRaceStress(t *testing.T) {
	snapshotEveryCheckpoint(t)
	rng := rand.New(rand.NewSource(909))
	h := randomHyper(rng, 18, 5, 3, 3, 12)
	_, want, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		_, got, err := SolveMultiProc(context.Background(), h, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: parallel %d, sequential %d", trial, got, want)
		}
	}

	// 26 tasks on 3 processors with large distinct weights: weak pruning,
	// far more nodes than either stop below allows.
	hb := hypergraph.NewBuilder(26, 3)
	for task := 0; task < 26; task++ {
		for p := 0; p < 3; p++ {
			hb.AddEdge(task, []int{p}, int64(1000+37*task+p))
		}
	}
	hard := hb.MustBuild()
	valid := func(label string, a []int32, m int64) {
		t.Helper()
		if err := core.ValidateHyperAssignment(hard, a); err != nil {
			t.Fatalf("%s: incumbent invalid: %v", label, err)
		}
		if core.HyperMakespan(hard, a) != m {
			t.Fatalf("%s: reported %d != incumbent makespan", label, m)
		}
	}

	const budget = 200_000
	var st SearchStats
	a, m, err := SolveMultiProc(context.Background(), hard, Options{Workers: 8, MaxNodes: budget, Stats: &st})
	if !errors.Is(err, ErrLimit) || st.Nodes != budget {
		t.Fatalf("budget stop: err %v after %d nodes, want ErrLimit after exactly %d", err, st.Nodes, budget)
	}
	valid("budget stop", a, m)

	// The progress hook runs at every barrier; cancelling from it makes
	// the watcher halt the workers somewhere in a later round.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	barriers := 0
	a, m, err = SolveMultiProc(ctx, hard, Options{
		Workers: 8,
		Progress: func(telemetry.SearchProgress) {
			if barriers++; barriers == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled after %d barriers: want ErrCancelled, got %v", barriers, err)
	}
	valid("cancelled", a, m)
}

// TestBarrierKeepsCancelledRound: a cancellation that lands after the
// last subproblem of a round finished stores a negative cut. The barrier
// must keep the whole round — every node and improvement — rather than
// truncate it, even before the cancelled flag is visible.
func TestBarrierKeepsCancelledRound(t *testing.T) {
	sr := newSearch([]int32{0, 0}, 10, 1, 1000, 2)
	sr.cut.Store(-1)
	list := []subproblem{{}, {}}
	res := []result{
		{nodes: 5, open: true},
		{nodes: 7, m: 4, a: []int32{1, 1}},
	}
	next := sr.barrier(list, res)
	if sr.nodes != 12 || sr.bestM != 4 || len(next) != 1 {
		t.Fatalf("barrier after a late cancel: %d nodes, best %d, %d open; want 12, 4, 1", sr.nodes, sr.bestM, len(next))
	}
}
