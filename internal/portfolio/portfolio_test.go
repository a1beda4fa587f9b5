package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"semimatch/internal/core"
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

func TestPortfolioAtLeastAsGoodAsEveryMember(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHyper(rng, 1+rng.Intn(40), 2+rng.Intn(8), 4, 4, 9)
		res, err := SolveCtx(context.Background(), h, Options{})
		if err != nil {
			return false
		}
		if core.ValidateHyperAssignment(h, res.Assignment) != nil {
			return false
		}
		if res.Makespan != core.HyperMakespan(h, res.Assignment) {
			return false
		}
		for _, name := range DefaultAlgorithms {
			if res.Makespan > res.Makespans[name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPortfolioDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHyper(rng, 50, 8, 4, 4, 9)
	r1, err1 := SolveCtx(context.Background(), h, Options{Workers: 1})
	r4, err4 := SolveCtx(context.Background(), h, Options{Workers: 4})
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if r1.Winner != r4.Winner || !reflect.DeepEqual(r1.Assignment, r4.Assignment) {
		t.Fatalf("winner %q (1 worker) vs %q (4 workers)", r1.Winner, r4.Winner)
	}
}

func TestPortfolioRefineNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		h := randomHyper(rng, 40, 6, 4, 3, 9)
		plain, err := SolveCtx(context.Background(), h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := SolveCtx(context.Background(), h, Options{Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if refined.Makespan > plain.Makespan {
			t.Fatalf("trial %d: refined %d worse than plain %d", trial, refined.Makespan, plain.Makespan)
		}
	}
}

func TestPortfolioSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHyper(rng, 30, 6, 3, 3, 5)
	res, err := SolveCtx(context.Background(), h, Options{Algorithms: []string{"SGH"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "SGH" {
		t.Fatalf("winner = %q", res.Winner)
	}
	want := core.HyperMakespan(h, core.SortedGreedyHyp(h, core.HyperOptions{}))
	if res.Makespan != want {
		t.Fatalf("makespan %d, want %d", res.Makespan, want)
	}
	if len(res.Makespans) != 1 {
		t.Fatalf("league table %v", res.Makespans)
	}
}

func TestPortfolioTieBreaksByOrder(t *testing.T) {
	// A forced instance: every algorithm produces the same (only)
	// schedule; the first portfolio member must win.
	b := hypergraph.NewBuilder(2, 2)
	b.AddEdge(0, []int{0}, 3)
	b.AddEdge(1, []int{1}, 3)
	h := b.MustBuild()
	res, err := SolveCtx(context.Background(), h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "SGH" {
		t.Fatalf("tie should go to the first member, got %q", res.Winner)
	}
}

func BenchmarkPortfolio(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randomHyper(rng, 5120, 256, 5, 10, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCtx(context.Background(), h, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPortfolioUnknownAlgorithmIsError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomHyper(rng, 10, 4, 3, 3, 5)
	_, err := SolveCtx(context.Background(), h, Options{Algorithms: []string{"SGH", "bogus"}})
	if err == nil {
		t.Fatal("unknown algorithm must be an error, not a panic")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error should name the offender: %v", err)
	}
}

func TestPortfolioCtxExpiredBeforeAnyMember(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	h := randomHyper(rng, 10, 4, 3, 3, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// With a pre-cancelled context the race may still collect members that
	// finish between launch and the first select; both outcomes are legal,
	// but an error must wrap ctx.Err() and a result must be valid.
	res, err := SolveCtx(ctx, h, Options{})
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		return
	}
	if core.ValidateHyperAssignment(h, res.Assignment) != nil {
		t.Fatal("invalid assignment from truncated race")
	}
}

func TestPortfolioCtxDeadlineReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomHyper(rng, 2000, 64, 5, 6, 50)
	// A deadline long enough for the fast greedies but typically too short
	// for every member to refine a 2000-task instance.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := SolveCtx(ctx, h, Options{Refine: true})
	if err != nil {
		// All members timed out before producing anything: acceptable on a
		// very slow machine, but the error must carry the deadline cause.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v", err)
		}
		return
	}
	if err := core.ValidateHyperAssignment(h, res.Assignment); err != nil {
		t.Fatal(err)
	}
	if res.Makespan != core.HyperMakespan(h, res.Assignment) {
		t.Fatal("reported makespan mismatch")
	}
	if len(res.Makespans) < len(DefaultAlgorithms) && !res.Incomplete {
		t.Fatal("truncated league table must set Incomplete")
	}
}

func TestPortfolioCtxBackgroundComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := randomHyper(rng, 50, 8, 4, 4, 9)
	res, err := SolveCtx(context.Background(), h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete || len(res.Makespans) != len(DefaultAlgorithms) {
		t.Fatalf("background run must be complete: %+v", res)
	}
}

// An exact member that exhausts its node budget still contributes its
// incumbent as a candidate instead of landing in MemberErrs.
func TestExactMemberKeepsIncumbent(t *testing.T) {
	// 26 single-processor configurations per task with large distinct
	// weights: 3^26 leaves and weak pruning guarantee the budget trips.
	b := hypergraph.NewBuilder(26, 3)
	for task := 0; task < 26; task++ {
		for p := 0; p < 3; p++ {
			b.AddEdge(task, []int{p}, int64(1000+37*task+p))
		}
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveCtx(context.Background(), h, Options{Algorithms: []string{"SGH", "exact"}})
	if err != nil {
		t.Fatalf("portfolio must keep the exact incumbent: %v", err)
	}
	if len(res.MemberErrs) != 0 {
		t.Fatalf("budget truncation is not a member failure: %v", res.MemberErrs)
	}
	// Drafting "exact" executes the parallel engine under the hood
	// (registry.Preferred), but the league table stays keyed by the
	// drafted member's canonical name.
	if _, ok := res.Makespans["BnB-MP"]; !ok {
		t.Fatalf("exact member missing from the league table: %v", res.Makespans)
	}
	if res.Makespans["BnB-MP"] > res.Makespans["SGH"] {
		t.Fatalf("B&B seeds from sorted greedy, incumbent can't be worse: %v", res.Makespans)
	}
}
