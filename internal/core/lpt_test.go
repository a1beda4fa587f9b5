package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"semimatch/internal/bipartite"
)

func randomWeightedGraph(rng *rand.Rand, n, p, maxDeg int, maxW int64) *bipartite.Graph {
	b := bipartite.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		d := 1 + rng.Intn(maxDeg)
		if d > p {
			d = p
		}
		w := 1 + rng.Int63n(maxW) // one intrinsic size per task
		for _, v := range rng.Perm(p)[:d] {
			b.AddWeightedEdge(t, v, w)
		}
	}
	return b.MustBuild()
}

func TestLPTClassicExample(t *testing.T) {
	// The canonical LPT instance: weights 3,3,2,2,2 on 2 machines. LPT
	// alternates 3/3, 2/2, then the last 2 lands on a machine of load 5:
	// makespan 7 against the optimal 6 (3+3 vs 2+2+2) — exactly the 7/6
	// behaviour Graham's analysis predicts. Pinning it documents the
	// heuristic's semantics.
	b := bipartite.NewBuilder(5, 2)
	for task, w := range []int64{3, 3, 2, 2, 2} {
		b.AddWeightedEdge(task, 0, w)
		b.AddWeightedEdge(task, 1, w)
	}
	g := b.MustBuild()
	a := LPTGreedy(g)
	if err := ValidateAssignment(g, a); err != nil {
		t.Fatal(err)
	}
	if m := Makespan(g, a); m != 7 {
		t.Fatalf("LPT makespan = %d, want 7 (optimal is 6)", m)
	}
	// And LPT solves the easy variant 4,3,3,2 on 2 machines optimally.
	b2 := bipartite.NewBuilder(4, 2)
	for task, w := range []int64{4, 3, 3, 2} {
		b2.AddWeightedEdge(task, 0, w)
		b2.AddWeightedEdge(task, 1, w)
	}
	g2 := b2.MustBuild()
	if m := Makespan(g2, LPTGreedy(g2)); m != 6 {
		t.Fatalf("LPT on 4,3,3,2 = %d, want 6", m)
	}
}

func TestLPTRespectsEligibility(t *testing.T) {
	b := bipartite.NewBuilder(2, 2)
	b.AddWeightedEdge(0, 0, 9) // heavy, restricted to P0
	b.AddWeightedEdge(1, 0, 1)
	b.AddWeightedEdge(1, 1, 1)
	g := b.MustBuild()
	a := LPTGreedy(g)
	if a[0] != 0 {
		t.Fatalf("restricted task on %d", a[0])
	}
	if a[1] != 1 {
		t.Fatalf("light task should avoid the loaded P0, got %d", a[1])
	}
}

func TestLPTOnUnitEqualsSortedishQuality(t *testing.T) {
	// On unit graphs LPT degenerates to degree order (weight ties →
	// smaller degree first) with the after-load rule; quality must be
	// within the usual greedy band.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomUnitGraph(rng, 10+rng.Intn(60), 2+rng.Intn(8), 4)
		a := LPTGreedy(g)
		if err := ValidateAssignment(g, a); err != nil {
			t.Fatal(err)
		}
		_, opt, err := ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if m := Makespan(g, a); m < opt || m > 3*opt {
			t.Fatalf("trial %d: LPT %d vs OPT %d out of band", trial, m, opt)
		}
	}
}

func TestLPTNeverBelowLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomWeightedGraph(rng, 1+rng.Intn(40), 1+rng.Intn(8), 4, 9)
		a := LPTGreedy(g)
		if ValidateAssignment(g, a) != nil {
			return false
		}
		return Makespan(g, a) >= LowerBoundSingle(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLPTBeatsDegreeOrderOnWeighted(t *testing.T) {
	// Aggregate comparison: over many weighted instances, LPT should be
	// at least as good as degree-sorted greedy on average (that is the
	// point of the extension).
	rng := rand.New(rand.NewSource(7))
	var lptTotal, sortedTotal int64
	for trial := 0; trial < 60; trial++ {
		g := randomWeightedGraph(rng, 60, 6, 3, 20)
		lptTotal += Makespan(g, LPTGreedy(g))
		sortedTotal += Makespan(g, SortedGreedy(g))
	}
	if lptTotal > sortedTotal {
		t.Fatalf("LPT total %d worse than degree-sorted %d", lptTotal, sortedTotal)
	}
}

func TestLowerBoundSingle(t *testing.T) {
	b := bipartite.NewBuilder(3, 2)
	b.AddWeightedEdge(0, 0, 7)
	b.AddWeightedEdge(1, 0, 2)
	b.AddWeightedEdge(1, 1, 2)
	b.AddWeightedEdge(2, 1, 3)
	g := b.MustBuild()
	// total = 12, p = 2 → avg bound 6; max task 7 → LB 7.
	if lb := LowerBoundSingle(g); lb != 7 {
		t.Fatalf("LB = %d, want 7", lb)
	}
	empty, _ := bipartite.NewFromAdjacency(0, nil)
	if LowerBoundSingle(empty) != 0 {
		t.Fatal("empty LB must be 0")
	}
}

func BenchmarkLPTGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomWeightedGraph(rng, 20480, 1024, 10, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LPTGreedy(g)
	}
}
