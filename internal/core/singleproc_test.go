package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"semimatch/internal/bipartite"
	"semimatch/internal/matching"
)

// fig1 is the toy instance of Fig. 1: T0 → {P0,P1}, T1 → {P0}.
func fig1(t *testing.T) *bipartite.Graph {
	t.Helper()
	g, err := bipartite.NewFromAdjacency(2, [][]int{{0, 1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFig1BasicGreedyTrap(t *testing.T) {
	g := fig1(t)
	// Basic greedy visits T0 first, ties break to P0, then T1 is forced
	// onto P0: makespan 2, twice the optimum — the paper's motivating
	// example for sorting.
	a := BasicGreedy(g)
	if err := ValidateAssignment(g, a); err != nil {
		t.Fatal(err)
	}
	if Makespan(g, a) != 2 {
		t.Fatalf("basic-greedy makespan = %d, want 2 (the trap)", Makespan(g, a))
	}
	// Sorted greedy schedules the degree-1 task first and is optimal.
	for name, alg := range map[string]func(*bipartite.Graph) Assignment{
		"sorted":   SortedGreedy,
		"double":   DoubleSorted,
		"expected": ExpectedGreedy,
	} {
		a := alg(g)
		if err := ValidateAssignment(g, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if Makespan(g, a) != 1 {
			t.Fatalf("%s makespan = %d, want 1", name, Makespan(g, a))
		}
	}
}

func TestLoadsAndMakespan(t *testing.T) {
	g := fig1(t)
	a := Assignment{1, 0}
	loads := Loads(g, a)
	if loads[0] != 1 || loads[1] != 1 {
		t.Fatalf("loads = %v", loads)
	}
	if Makespan(g, a) != 1 {
		t.Fatalf("makespan = %d", Makespan(g, a))
	}
}

func TestWeightedLoads(t *testing.T) {
	b := bipartite.NewBuilder(2, 2)
	b.AddWeightedEdge(0, 0, 5)
	b.AddWeightedEdge(0, 1, 3)
	b.AddWeightedEdge(1, 0, 2)
	g := b.MustBuild()
	a := Assignment{0, 0}
	loads := Loads(g, a)
	if loads[0] != 7 || loads[1] != 0 {
		t.Fatalf("loads = %v", loads)
	}
}

func TestValidateAssignment(t *testing.T) {
	g := fig1(t)
	if err := ValidateAssignment(g, Assignment{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignment(g, Assignment{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := ValidateAssignment(g, Assignment{Unassigned, 0}); err == nil {
		t.Fatal("unassigned accepted")
	}
	if err := ValidateAssignment(g, Assignment{1, 1}); err == nil {
		t.Fatal("ineligible processor accepted")
	}
}

// randomUnitGraph builds a connected-enough random instance where every
// task has at least one eligible processor.
func randomUnitGraph(rng *rand.Rand, n, p int, maxDeg int) *bipartite.Graph {
	b := bipartite.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		d := 1 + rng.Intn(maxDeg)
		if d > p {
			d = p
		}
		for _, v := range rng.Perm(p)[:d] {
			b.AddEdge(t, v)
		}
	}
	return b.MustBuild()
}

// bruteOptimal computes the exact optimal makespan by exhaustive search.
// Only for tiny instances.
func bruteOptimal(g *bipartite.Graph) int64 {
	loads := make([]int64, g.NRight)
	best := int64(1) << 62
	var rec func(t int, cur int64)
	rec = func(t int, cur int64) {
		if cur >= best {
			return
		}
		if t == g.NLeft {
			best = cur
			return
		}
		row := g.Neighbors(t)
		w := g.Weights(t)
		for i, p := range row {
			wi := int64(1)
			if w != nil {
				wi = w[i]
			}
			loads[p] += wi
			nc := cur
			if loads[p] > nc {
				nc = loads[p]
			}
			rec(t+1, nc)
			loads[p] -= wi
		}
	}
	rec(0, 0)
	return best
}

func TestExactUnitAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		g := randomUnitGraph(rng, 1+rng.Intn(8), 1+rng.Intn(4), 3)
		want := bruteOptimal(g)
		a, d, err := ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ValidateAssignment(g, a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d != want {
			t.Fatalf("trial %d: D=%d, want %d", trial, d, want)
		}
		if m := Makespan(g, a); m != d {
			t.Fatalf("trial %d: assignment makespan %d != reported %d", trial, m, d)
		}
	}
}

// TestExactUnitLargerCrossCheck: on larger graphs ExactUnit's assignment
// is the capacitated matcher's at its D, and no matching covers every
// task at D−1.
func TestExactUnitLargerCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := randomUnitGraph(rng, 200+rng.Intn(200), 5+rng.Intn(20), 4)
		a, d, err := ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		w := matching.Wrap(g.NLeft, g.NRight, g.Ptr, g.Adj)
		if m, _ := matching.HopcroftKarpCap(context.Background(), w, int(d)); !slices.Equal(a, Assignment(m)) {
			t.Fatalf("trial %d: assignment is not the matcher's at D=%d", trial, d)
		}
		if d > 1 {
			if m, _ := matching.HopcroftKarpCap(context.Background(), w, int(d)-1); matching.Cardinality(m) == g.NLeft {
				t.Fatalf("trial %d: D=%d is not minimal", trial, d)
			}
		}
	}
}

func TestExactUnitErrors(t *testing.T) {
	// Isolated task.
	g, err := bipartite.NewFromAdjacency(2, [][]int{{0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExactUnit(context.Background(), g); err == nil {
		t.Fatal("isolated task accepted")
	}
	// Weighted graph.
	b := bipartite.NewBuilder(1, 1)
	b.AddWeightedEdge(0, 0, 2)
	if _, _, err := ExactUnit(context.Background(), b.MustBuild()); err == nil {
		t.Fatal("weighted graph accepted")
	}
	// Empty graph is trivially feasible with makespan 0.
	empty, err := bipartite.NewFromAdjacency(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, d, err := ExactUnit(context.Background(), empty); err != nil || d != 0 {
		t.Fatalf("empty graph: d=%d err=%v", d, err)
	}
}

// TestGreediesLeaveIsolatedTaskUnassigned: a task with no eligible
// processor comes back Unassigned from every greedy, and the others are
// still placed (SortedGreedy runs on the singleton lift, where such a
// task has no hyperedge).
func TestGreediesLeaveIsolatedTaskUnassigned(t *testing.T) {
	b := bipartite.NewBuilder(3, 2)
	b.AddWeightedEdge(0, 0, 3)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(2, 1, 2)
	g := b.MustBuild()
	for name, alg := range map[string]func(*bipartite.Graph) Assignment{
		"basic": BasicGreedy, "sorted": SortedGreedy, "double": DoubleSorted, "expected": ExpectedGreedy,
	} {
		if a := alg(g); a[1] != Unassigned || a[0] == Unassigned || a[2] != 1 {
			t.Fatalf("%s: %v, want task 1 unassigned and the others placed", name, a)
		}
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUnitGraph(rng, 1+rng.Intn(30), 1+rng.Intn(8), 4)
		_, opt, err := ExactUnit(context.Background(), g)
		if err != nil {
			return false
		}
		for _, alg := range []func(*bipartite.Graph) Assignment{
			BasicGreedy, SortedGreedy, DoubleSorted, ExpectedGreedy,
		} {
			a := alg(g)
			if ValidateAssignment(g, a) != nil {
				return false
			}
			if Makespan(g, a) < opt {
				return false // greedy below the optimum: impossible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestHarveyOptimalMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		g := randomUnitGraph(rng, 1+rng.Intn(40), 1+rng.Intn(10), 4)
		a, err := HarveyOptimal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateAssignment(g, a); err != nil {
			t.Fatal(err)
		}
		_, opt, err := ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if m := Makespan(g, a); m != opt {
			t.Fatalf("trial %d: Harvey makespan %d, exact %d", trial, m, opt)
		}
	}
}

func TestHarveyRejectsWeighted(t *testing.T) {
	b := bipartite.NewBuilder(1, 1)
	b.AddWeightedEdge(0, 0, 3)
	if _, err := HarveyOptimal(b.MustBuild()); err == nil {
		t.Fatal("weighted graph accepted")
	}
}

func TestDegreeSortStability(t *testing.T) {
	// Tasks with equal degree must be visited in index order: with all
	// loads equal the assignment must be reproducible.
	g, err := bipartite.NewFromAdjacency(3, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	a := SortedGreedy(g)
	b := SortedGreedy(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic assignment")
		}
	}
	if Makespan(g, a) != 1 {
		t.Fatalf("K_{3,3}-ish should balance perfectly: %v", Loads(g, a))
	}
}

func TestExpectedGreedyFinalLoadsInvariant(t *testing.T) {
	// "When the algorithm terminates, the values o(u) are equivalent to
	// actual loads l(u)" (Sec. IV-B4). We verify via the makespan: the
	// assignment's real loads must be consistent, i.e. validation passes
	// and the makespan is sane.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := randomUnitGraph(rng, 10+rng.Intn(50), 2+rng.Intn(8), 5)
		a := ExpectedGreedy(g)
		if err := ValidateAssignment(g, a); err != nil {
			t.Fatal(err)
		}
		if m := Makespan(g, a); m < 1 || m > int64(g.NLeft) {
			t.Fatalf("absurd makespan %d", m)
		}
	}
}

func BenchmarkSortedGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomUnitGraph(rng, 20480, 1024, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortedGreedy(g)
	}
}

func BenchmarkExpectedGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomUnitGraph(rng, 20480, 1024, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpectedGreedy(g)
	}
}

func BenchmarkExactUnit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomUnitGraph(rng, 20480, 256, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactUnit(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}
