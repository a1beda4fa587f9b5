package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semimatch/internal/bipartite"
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
	a := BasicGreedy(g, GreedyOptions{})
	if err := ValidateAssignment(g, a); err != nil {
		t.Fatal(err)
	}
	if Makespan(g, a) != 2 {
		t.Fatalf("basic-greedy makespan = %d, want 2 (the trap)", Makespan(g, a))
	}
	// Sorted greedy schedules the degree-1 task first and is optimal.
	for name, alg := range map[string]func(*bipartite.Graph, GreedyOptions) Assignment{
		"sorted":   SortedGreedy,
		"double":   DoubleSorted,
		"expected": ExpectedGreedy,
	} {
		a := alg(g, GreedyOptions{})
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

func TestExactUnitAllVariantsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	variants := []ExactOptions{
		{SearchIncremental, TestCapacitated},
		{SearchIncremental, TestReplicate},
		{SearchIncremental, TestReplicateHK},
		{SearchBisection, TestCapacitated},
		{SearchBisection, TestReplicate},
		{SearchBisection, TestReplicateHK},
	}
	for trial := 0; trial < 60; trial++ {
		g := randomUnitGraph(rng, 1+rng.Intn(8), 1+rng.Intn(4), 3)
		want := bruteOptimal(g)
		for _, opt := range variants {
			a, d, err := ExactUnit(g, opt)
			if err != nil {
				t.Fatalf("trial %d %+v: %v", trial, opt, err)
			}
			if err := ValidateAssignment(g, a); err != nil {
				t.Fatalf("trial %d %+v: %v", trial, opt, err)
			}
			if d != want {
				t.Fatalf("trial %d %+v: D=%d, want %d", trial, opt, d, want)
			}
			if m := Makespan(g, a); m != d {
				t.Fatalf("trial %d %+v: assignment makespan %d != reported %d", trial, opt, m, d)
			}
		}
	}
}

func TestExactUnitLargerCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := randomUnitGraph(rng, 200+rng.Intn(200), 5+rng.Intn(20), 4)
		_, d1, err := ExactUnit(g, ExactOptions{SearchBisection, TestCapacitated})
		if err != nil {
			t.Fatal(err)
		}
		_, d2, err := ExactUnit(g, ExactOptions{SearchIncremental, TestReplicate})
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("trial %d: bisection/cap=%d vs incremental/replicate=%d", trial, d1, d2)
		}
	}
}

func TestExactUnitErrors(t *testing.T) {
	// Isolated task.
	g, err := bipartite.NewFromAdjacency(2, [][]int{{0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExactUnit(g, ExactOptions{}); err == nil {
		t.Fatal("isolated task accepted")
	}
	// Weighted graph.
	b := bipartite.NewBuilder(1, 1)
	b.AddWeightedEdge(0, 0, 2)
	if _, _, err := ExactUnit(b.MustBuild(), ExactOptions{}); err == nil {
		t.Fatal("weighted graph accepted")
	}
	// Empty graph is trivially feasible with makespan 0.
	empty, err := bipartite.NewFromAdjacency(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, d, err := ExactUnit(empty, ExactOptions{}); err != nil || d != 0 {
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
	for name, alg := range map[string]func(*bipartite.Graph, GreedyOptions) Assignment{
		"basic": BasicGreedy, "sorted": SortedGreedy, "double": DoubleSorted, "expected": ExpectedGreedy,
	} {
		for _, afterLoad := range []bool{false, true} {
			a := alg(g, GreedyOptions{AfterLoad: afterLoad})
			if a[1] != Unassigned || a[0] == Unassigned || a[2] != 1 {
				t.Fatalf("%s (AfterLoad %v): %v, want task 1 unassigned and the others placed", name, afterLoad, a)
			}
		}
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUnitGraph(rng, 1+rng.Intn(30), 1+rng.Intn(8), 4)
		_, opt, err := ExactUnit(g, ExactOptions{})
		if err != nil {
			return false
		}
		for _, alg := range []func(*bipartite.Graph, GreedyOptions) Assignment{
			BasicGreedy, SortedGreedy, DoubleSorted, ExpectedGreedy,
		} {
			a := alg(g, GreedyOptions{})
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
		_, opt, err := ExactUnit(g, ExactOptions{})
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

func TestGreedyAfterLoadOnWeighted(t *testing.T) {
	// Weighted instance where the after-load rule matters: T0 can go to
	// P0 (weight 10) or P1 (weight 1); both loads 0. Paper rule picks P0
	// (current load tie → lowest index); after-load rule picks P1.
	b := bipartite.NewBuilder(1, 2)
	b.AddWeightedEdge(0, 0, 10)
	b.AddWeightedEdge(0, 1, 1)
	g := b.MustBuild()
	a1 := BasicGreedy(g, GreedyOptions{})
	if a1[0] != 0 {
		t.Fatalf("paper rule picked %d, want 0", a1[0])
	}
	a2 := BasicGreedy(g, GreedyOptions{AfterLoad: true})
	if a2[0] != 1 {
		t.Fatalf("after-load rule picked %d, want 1", a2[0])
	}
}

func TestDegreeSortStability(t *testing.T) {
	// Tasks with equal degree must be visited in index order: with all
	// loads equal the assignment must be reproducible.
	g, err := bipartite.NewFromAdjacency(3, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	a := SortedGreedy(g, GreedyOptions{})
	b := SortedGreedy(g, GreedyOptions{})
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
		a := ExpectedGreedy(g, GreedyOptions{})
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
		SortedGreedy(g, GreedyOptions{})
	}
}

func BenchmarkExpectedGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomUnitGraph(rng, 20480, 1024, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpectedGreedy(g, GreedyOptions{})
	}
}

func BenchmarkExactUnitBisectionCap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomUnitGraph(rng, 20480, 256, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactUnit(g, ExactOptions{SearchBisection, TestCapacitated}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactUnitIncrementalReplicate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomUnitGraph(rng, 5120, 256, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactUnit(g, ExactOptions{SearchIncremental, TestReplicate}); err != nil {
			b.Fatal(err)
		}
	}
}
