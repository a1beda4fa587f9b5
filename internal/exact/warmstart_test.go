package exact

import (
	"context"
	"math/rand"
	"testing"

	"semimatch/internal/core"
)

// The warm-start guard: seeding a search with InitialIncumbent must never
// change the optimum it returns, and a sequential warm-started search must
// expand at most as many nodes as the cold one — a strictly tighter
// initial bound prunes a superset of the cold search's prunes. Cold runs
// are byte-identical to runs before InitialIncumbent existed, which is
// what keeps the semibench -max-nodes-regress trajectory valid.

func TestWarmStartSingleProcNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		g := randomWeightedGraph(rng, 6+rng.Intn(10), 2+rng.Intn(4), 3, 20)

		var cold SearchStats
		aCold, mCold, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: &cold})
		if err != nil {
			t.Fatal(err)
		}

		// Warm-start from the cold optimum itself: the tightest possible
		// incumbent. Same makespan must come back with no more nodes.
		var warm SearchStats
		aWarm, mWarm, err := SolveSingleProc(context.Background(), g, Options{
			Workers:          1,
			Stats:            &warm,
			InitialIncumbent: aCold,
		})
		if err != nil {
			t.Fatal(err)
		}
		if mWarm != mCold {
			t.Fatalf("trial %d: warm makespan %d != cold %d", trial, mWarm, mCold)
		}
		if err := core.ValidateAssignment(g, aWarm); err != nil {
			t.Fatalf("trial %d: warm assignment invalid: %v", trial, err)
		}
		if warm.Nodes > cold.Nodes {
			t.Fatalf("trial %d: warm explored %d nodes > cold %d", trial, warm.Nodes, cold.Nodes)
		}
	}
}

func TestWarmStartMultiProcNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		h := randomHyper(rng, 5+rng.Intn(8), 2+rng.Intn(4), 3, 3, 12)

		var cold SearchStats
		aCold, mCold, err := SolveMultiProc(context.Background(), h, Options{Workers: 1, Stats: &cold})
		if err != nil {
			t.Fatal(err)
		}

		var warm SearchStats
		aWarm, mWarm, err := SolveMultiProc(context.Background(), h, Options{
			Workers:          1,
			Stats:            &warm,
			InitialIncumbent: aCold,
		})
		if err != nil {
			t.Fatal(err)
		}
		if mWarm != mCold {
			t.Fatalf("trial %d: warm makespan %d != cold %d", trial, mWarm, mCold)
		}
		if err := core.ValidateHyperAssignment(h, aWarm); err != nil {
			t.Fatalf("trial %d: warm assignment invalid: %v", trial, err)
		}
		if warm.Nodes > cold.Nodes {
			t.Fatalf("trial %d: warm explored %d nodes > cold %d", trial, warm.Nodes, cold.Nodes)
		}
	}
}

// An invalid or non-improving warm start must be ignored: the run behaves
// exactly like a cold one, node counts included.
func TestWarmStartInvalidIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomWeightedGraph(rng, 10, 3, 3, 20)

	var cold SearchStats
	_, mCold, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: &cold})
	if err != nil {
		t.Fatal(err)
	}

	bad := [][]int32{
		make([]int32, g.NLeft-1),             // wrong length
		append(make([]int32, g.NLeft-1), 99), // out-of-range processor
	}
	// An assignment to an ineligible processor: flip task 0 to a
	// processor outside its row if one exists.
	ineligible := make([]int32, g.NLeft)
	row := g.Neighbors(0)
	for p := int32(0); int(p) < g.NRight; p++ {
		found := false
		for _, q := range row {
			if q == p {
				found = true
			}
		}
		if !found {
			ineligible[0] = p
			bad = append(bad, ineligible)
			break
		}
	}
	for i, w := range bad {
		var st SearchStats
		_, m, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: &st, InitialIncumbent: w})
		if err != nil {
			t.Fatalf("bad warm start %d: %v", i, err)
		}
		if m != mCold || st.Nodes != cold.Nodes {
			t.Fatalf("bad warm start %d perturbed the search: makespan %d/%d nodes %d/%d",
				i, m, mCold, st.Nodes, cold.Nodes)
		}
	}
}

// Warm starts on the parallel engine: same optimum, valid schedule. (Node
// counts are nondeterministic across workers, so only correctness is
// asserted here; the sequential tests pin the node-count guarantee.)
func TestWarmStartParallelCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		g := randomWeightedGraph(rng, 8+rng.Intn(8), 2+rng.Intn(4), 3, 20)
		aCold, mCold, err := SolveSingleProc(context.Background(), g, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		aWarm, mWarm, err := SolveSingleProc(context.Background(), g, Options{Workers: 4, InitialIncumbent: aCold})
		if err != nil {
			t.Fatal(err)
		}
		if mWarm != mCold {
			t.Fatalf("trial %d: parallel warm makespan %d != cold %d", trial, mWarm, mCold)
		}
		if err := core.ValidateAssignment(g, aWarm); err != nil {
			t.Fatal(err)
		}

		h := randomHyper(rng, 5+rng.Intn(6), 2+rng.Intn(3), 3, 3, 12)
		hCold, hmCold, err := SolveMultiProc(context.Background(), h, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		_, hmWarm, err := SolveMultiProc(context.Background(), h, Options{Workers: 4, InitialIncumbent: hCold})
		if err != nil {
			t.Fatal(err)
		}
		if hmWarm != hmCold {
			t.Fatalf("trial %d: parallel hyper warm makespan %d != cold %d", trial, hmWarm, hmCold)
		}
	}
}
