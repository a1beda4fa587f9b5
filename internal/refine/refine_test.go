package refine

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
)

func randomHyper(rng *rand.Rand, nTasks, nProcs, maxDeg, maxSize int, maxW int64) *hypergraph.Hypergraph {
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

func TestRefineNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHyper(rng, 1+rng.Intn(30), 1+rng.Intn(8), 4, 4, 9)
		a := core.SortedGreedyHyp(h)
		res := RefineCtx(context.Background(), h, a, Options{})
		if core.ValidateHyperAssignment(h, res.Assignment) != nil {
			return false
		}
		if res.After > res.Before {
			return false
		}
		if res.Before != core.HyperMakespan(h, a) {
			return false
		}
		return res.After == core.HyperMakespan(h, res.Assignment)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := randomHyper(rng, 20, 5, 3, 3, 5)
	a := core.SortedGreedyHyp(h)
	snapshot := append(core.HyperAssignment(nil), a...)
	RefineCtx(context.Background(), h, a, Options{})
	for i := range a {
		if a[i] != snapshot[i] {
			t.Fatal("input assignment mutated")
		}
	}
}

func TestRefineReachesLocalOptimum(t *testing.T) {
	// Refining a refined assignment must find no further moves.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		h := randomHyper(rng, 1+rng.Intn(25), 2+rng.Intn(6), 4, 3, 7)
		a := core.SortedGreedyHyp(h)
		r1 := RefineCtx(context.Background(), h, a, Options{})
		r2 := RefineCtx(context.Background(), h, r1.Assignment, Options{})
		if r2.Moves != 0 {
			t.Fatalf("trial %d: second refinement made %d moves", trial, r2.Moves)
		}
	}
}

func TestRefineFindsObviousMove(t *testing.T) {
	// One task, two configurations; greedy rule (pre-add loads on empty
	// processors) picks the heavy one, refinement must move it.
	b := hypergraph.NewBuilder(1, 2)
	b.AddEdge(0, []int{0}, 10)
	b.AddEdge(0, []int{1}, 1)
	h := b.MustBuild()
	a := core.SortedGreedyHyp(h)
	if core.HyperMakespan(h, a) != 10 {
		t.Fatalf("setup: greedy should fall into the trap, got %d", core.HyperMakespan(h, a))
	}
	res := RefineCtx(context.Background(), h, a, Options{})
	if res.After != 1 || res.Moves != 1 {
		t.Fatalf("after=%d moves=%d, want 1 and 1", res.After, res.Moves)
	}
}

func TestRefineRespectsMaxRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := randomHyper(rng, 40, 4, 4, 3, 9)
	a := core.SortedGreedyHyp(h)
	res := RefineCtx(context.Background(), h, a, Options{MaxRounds: 1})
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestRefineSingleConfigTasksUntouched(t *testing.T) {
	b := hypergraph.NewBuilder(2, 2)
	b.AddEdge(0, []int{0}, 5)
	b.AddEdge(1, []int{0}, 5)
	h := b.MustBuild()
	a := core.SortedGreedyHyp(h)
	res := RefineCtx(context.Background(), h, a, Options{})
	if res.Moves != 0 || res.After != 10 {
		t.Fatalf("forced tasks must stay: moves=%d after=%d", res.Moves, res.After)
	}
}

func TestRefineClosesGapTowardOptimal(t *testing.T) {
	// Statistically, refinement should bring greedy closer to optimal on
	// small instances and never below it.
	rng := rand.New(rand.NewSource(5))
	improvedTotal := 0
	for trial := 0; trial < 40; trial++ {
		h := randomHyper(rng, 1+rng.Intn(9), 2+rng.Intn(4), 3, 3, 9)
		a := core.SortedGreedyHyp(h)
		res := RefineCtx(context.Background(), h, a, Options{})
		_, opt, err := exact.SolveMultiProc(context.Background(), h, exact.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.After < opt {
			t.Fatalf("trial %d: refined %d below optimal %d", trial, res.After, opt)
		}
		improvedTotal += int(res.Before - res.After)
	}
	if improvedTotal == 0 {
		t.Log("refinement never improved in 40 trials (possible but suspicious)")
	}
}

func BenchmarkRefineAfterSGH(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randomHyper(rng, 5120, 256, 5, 10, 20)
	a := core.SortedGreedyHyp(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RefineCtx(context.Background(), h, a, Options{})
	}
}

func TestRefineCtxCancelledStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomHyper(rng, 500, 16, 5, 4, 50)
	a := core.SortedGreedyHyp(h)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RefineCtx(ctx, h, a, Options{})
	if !res.Interrupted {
		t.Fatal("pre-cancelled context should interrupt the scan")
	}
	if err := core.ValidateHyperAssignment(h, res.Assignment); err != nil {
		t.Fatal(err)
	}
	if res.After > res.Before {
		t.Fatalf("interrupted refine worsened: %d -> %d", res.Before, res.After)
	}
}

// TestRefineCtxBackgroundMatchesPlain: polling a live, never-cancelled
// context changes nothing against a Background run.
func TestRefineCtxBackgroundMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := randomHyper(rng, 80, 8, 4, 3, 9)
	a := core.SortedGreedyHyp(h)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain := RefineCtx(context.Background(), h, a, Options{})
	withCtx := RefineCtx(ctx, h, a, Options{})
	if plain.After != withCtx.After || plain.Moves != withCtx.Moves || withCtx.Interrupted {
		t.Fatalf("plain %+v vs ctx %+v", plain, withCtx)
	}
}
