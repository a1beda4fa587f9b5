package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"semimatch/internal/hypergraph"
	"semimatch/internal/loadvec"
)

// fig2 is the hypergraph of Fig. 2 (0-based).
func fig2(t testing.TB) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(4, 3)
	b.AddEdge(0, []int{0}, 1)
	b.AddEdge(0, []int{1, 2}, 1)
	b.AddEdge(1, []int{0, 1}, 1)
	b.AddEdge(1, []int{1, 2}, 1)
	b.AddEdge(2, []int{2}, 1)
	b.AddEdge(3, []int{2}, 1)
	return b.MustBuild()
}

var hyperAlgorithms = []struct {
	name string
	f    func(*hypergraph.Hypergraph) HyperAssignment
}{
	{"SGH", SortedGreedyHyp},
	{"VGH", VectorGreedyHyp},
	{"EGH", ExpectedGreedyHyp},
	{"EVG", ExpectedVectorGreedyHyp},
}

func TestFig2AllHeuristicsValid(t *testing.T) {
	h := fig2(t)
	// T2 and T3 are both forced onto P2, so OPT = 2 (T0 and T1 can avoid
	// P2 entirely: T0→{P0} or T0→{P1,P2}? best is T0→P0... then T1→{P0,P1}
	// puts 1 on P0,P1). Any valid schedule has makespan ≥ 2.
	for _, alg := range hyperAlgorithms {
		a := alg.f(h)
		if err := ValidateHyperAssignment(h, a); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if m := HyperMakespan(h, a); m < 2 {
			t.Fatalf("%s: impossible makespan %d", alg.name, m)
		}
	}
}

func TestHyperLoadsAndMakespan(t *testing.T) {
	h := fig2(t)
	// T0→edge0 ({P0}), T1→edge3 ({P1,P2}), T2→edge4, T3→edge5.
	a := HyperAssignment{0, 3, 4, 5}
	loads := HyperLoads(h, a)
	if !reflect.DeepEqual(loads, []int64{1, 1, 3}) {
		t.Fatalf("loads = %v", loads)
	}
	if HyperMakespan(h, a) != 3 {
		t.Fatalf("makespan = %d", HyperMakespan(h, a))
	}
}

func TestValidateHyperAssignment(t *testing.T) {
	h := fig2(t)
	if err := ValidateHyperAssignment(h, HyperAssignment{0, 2, 4, 5}); err != nil {
		t.Fatal(err)
	}
	bad := []HyperAssignment{
		{0, 2, 4},             // wrong length
		{Unassigned, 2, 4, 5}, // unassigned
		{99, 2, 4, 5},         // out of range
		{2, 2, 4, 5},          // edge 2 belongs to task 1, not 0
	}
	for i, a := range bad {
		if err := ValidateHyperAssignment(h, a); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestLowerBound(t *testing.T) {
	h := fig2(t)
	// time_i: T0 min(1·1, 1·2)=1; T1 min(2,2)=2; T2 1; T3 1 → total 5,
	// p=3 → LB = ceil(5/3) = 2.
	if lb := LowerBound(h); lb != 2 {
		t.Fatalf("LB = %d, want 2", lb)
	}
}

func TestLowerBoundWeighted(t *testing.T) {
	b := hypergraph.NewBuilder(2, 2)
	b.AddEdge(0, []int{0}, 6)    // cost 6
	b.AddEdge(0, []int{0, 1}, 2) // cost 4 ← cheaper
	b.AddEdge(1, []int{1}, 3)    // cost 3
	h := b.MustBuild()
	// total = 4+3 = 7, p=2 → ceil(7/2)=4.
	if lb := LowerBound(h); lb != 4 {
		t.Fatalf("LB = %d, want 4", lb)
	}
}

// randomHyper builds a random valid MULTIPROC instance.
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

// bruteHyperOptimal exhaustively minimizes the makespan. Tiny instances only.
func bruteHyperOptimal(h *hypergraph.Hypergraph) int64 {
	loads := make([]int64, h.NProcs)
	best := int64(1) << 62
	var rec func(t int, cur int64)
	rec = func(t int, cur int64) {
		if cur >= best {
			return
		}
		if t == h.NTasks {
			best = cur
			return
		}
		for _, e := range h.TaskEdges(t) {
			w := h.Weight[e]
			nc := cur
			for _, u := range h.EdgeProcs(e) {
				loads[u] += w
				if loads[u] > nc {
					nc = loads[u]
				}
			}
			rec(t+1, nc)
			for _, u := range h.EdgeProcs(e) {
				loads[u] -= w
			}
		}
	}
	rec(0, 0)
	return best
}

func TestHeuristicsSandwichedByBoundsUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		h := randomHyper(rng, 1+rng.Intn(7), 1+rng.Intn(4), 3, 3, 1)
		opt := bruteHyperOptimal(h)
		lb := LowerBound(h)
		if lb > opt {
			t.Fatalf("trial %d: LB %d exceeds OPT %d", trial, lb, opt)
		}
		for _, alg := range hyperAlgorithms {
			a := alg.f(h)
			if err := ValidateHyperAssignment(h, a); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.name, err)
			}
			if m := HyperMakespan(h, a); m < opt {
				t.Fatalf("trial %d %s: makespan %d below OPT %d", trial, alg.name, m, opt)
			}
		}
	}
}

func TestHeuristicsSandwichedByBoundsWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		h := randomHyper(rng, 1+rng.Intn(6), 1+rng.Intn(4), 3, 3, 9)
		opt := bruteHyperOptimal(h)
		lb := LowerBound(h)
		if lb > opt {
			t.Fatalf("trial %d: LB %d exceeds OPT %d", trial, lb, opt)
		}
		for _, alg := range hyperAlgorithms {
			a := alg.f(h)
			if err := ValidateHyperAssignment(h, a); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.name, err)
			}
			if m := HyperMakespan(h, a); m < opt {
				t.Fatalf("trial %d %s: makespan %d below OPT %d", trial, alg.name, m, opt)
			}
		}
	}
}

// VectorGreedies pairs each fast vector greedy with its copy-and-sort
// reference, for the tests here and FuzzVectorGreedies: the two must
// give identical assignments.
var VectorGreedies = []struct {
	Name        string
	Fast, Naive func(*hypergraph.Hypergraph) HyperAssignment
}{
	{"VGH", VectorGreedyHyp, vectorGreedyNaive},
	{"EVG", ExpectedVectorGreedyHyp, expectedVectorNaive},
	{"EVG-X", mustLCM(ExpectedVectorGreedyHypExact), mustLCM(expectedVectorExactNaive)},
}

// vectorGreedyNaive is VectorGreedyHyp by copy and sort, the variant the
// paper implemented and timed: each candidate's loads are materialized in
// a copy of the whole vector, which is then sorted.
func vectorGreedyNaive(h *hypergraph.Hypergraph) HyperAssignment {
	a := make(HyperAssignment, h.NTasks)
	loads := make([]int64, h.NProcs)
	tmp := make([]int64, h.NProcs)
	for _, t := range hyperTaskOrder(h) {
		bestE := Unassigned
		var bestVec []int64
		for _, e := range h.TaskEdges(int(t)) {
			copy(tmp, loads)
			w := h.Weight[e]
			for _, u := range h.EdgeProcs(e) {
				tmp[u] += w
			}
			vec := loadvec.SortedDesc(tmp)
			if bestE == Unassigned || loadvec.CompareVec(vec, bestVec) < 0 {
				bestE, bestVec = e, vec
			}
		}
		a[t] = bestE
		w := h.Weight[bestE]
		for _, u := range h.EdgeProcs(bestE) {
			loads[u] += w
		}
	}
	return a
}

// expectedVectorNaive is ExpectedVectorGreedyHyp by copy and sort: each
// candidate's Algorithm 5 update is applied to a copy of the whole
// vector, which is then sorted.
func expectedVectorNaive(h *hypergraph.Hypergraph) HyperAssignment {
	a := make(HyperAssignment, h.NTasks)
	o := initExpected(h)
	tmp := make([]float64, h.NProcs)
	for _, t := range hyperTaskOrder(h) {
		edges := h.TaskEdges(int(t))
		d := float64(len(edges))
		bestE := Unassigned
		var bestVec []float64
		for _, e := range edges {
			// Tentatively realize e: Algorithm 5's update applied to a
			// copy, in the canonical operation order of commitExpected.
			copy(tmp, o)
			for _, e2 := range edges {
				share := float64(h.Weight[e2]) / d
				for _, u := range h.EdgeProcs(e2) {
					tmp[u] -= share
				}
			}
			w := float64(h.Weight[e])
			for _, u := range h.EdgeProcs(e) {
				tmp[u] += w
			}
			vec := loadvec.SortedDesc(tmp)
			if bestE == Unassigned || loadvec.CompareVec(vec, bestVec) < 0 {
				bestE, bestVec = e, vec
			}
		}
		a[t] = bestE
		commitExpected(h, int(t), bestE, o)
	}
	return a
}

// fastEqualsNaive checks on random instances that fast and naive give
// identical assignments. An instance has up to 256 processors, drawn
// log-uniformly so that the few-processor, tie-rich instances come up as
// often as wide ones, up to 300 tasks, and 1–4 configurations of up to 12
// processors with weights 1–7.
func fastEqualsNaive(t *testing.T, fast, naive func(*hypergraph.Hypergraph) HyperAssignment) {
	t.Helper()
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(1<<rng.Intn(9))
		h := randomHyper(rng, 1+rng.Intn(300), p, 4, 12, 7)
		return reflect.DeepEqual(fast(h), naive(h))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: seeds}); err != nil {
		t.Fatal(err)
	}
}

// The fast (touched-processor comparison) and naive (copy+sort) variants
// must produce identical assignments — including on floating-point ties,
// thanks to the canonical update order.
func TestVectorFastEqualsNaive(t *testing.T) {
	fastEqualsNaive(t, VectorGreedies[0].Fast, VectorGreedies[0].Naive)
}

func TestExpectedVectorFastEqualsNaive(t *testing.T) {
	for _, alg := range VectorGreedies[1:] {
		t.Run(alg.Name, func(t *testing.T) { fastEqualsNaive(t, alg.Fast, alg.Naive) })
	}
}

func TestHeuristicsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := randomHyper(rng, 40, 8, 4, 4, 5)
	for _, alg := range hyperAlgorithms {
		a := alg.f(h)
		b := alg.f(h)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s not deterministic", alg.name)
		}
	}
}

func TestSingleConfigTasksForced(t *testing.T) {
	// Tasks with one configuration must take it.
	b := hypergraph.NewBuilder(2, 2)
	b.AddEdge(0, []int{0}, 1)
	b.AddEdge(1, []int{0, 1}, 1)
	h := b.MustBuild()
	for _, alg := range hyperAlgorithms {
		a := alg.f(h)
		if a[0] != h.TaskEdges(0)[0] {
			t.Fatalf("%s: forced task not assigned its only configuration", alg.name)
		}
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	h := &hypergraph.Hypergraph{NTasks: 0, NProcs: 0, TaskPtr: []int32{0}, PinPtr: []int32{0}}
	if LowerBound(h) != 0 {
		t.Fatal("empty LB must be 0")
	}
}

func benchHyper(b *testing.B, nTasks, nProcs int) *hypergraph.Hypergraph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomHyper(rng, nTasks, nProcs, 5, 10, 20)
}

func BenchmarkSGH(b *testing.B) {
	h := benchHyper(b, 5120, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortedGreedyHyp(h)
	}
}

func BenchmarkEGH(b *testing.B) {
	h := benchHyper(b, 5120, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpectedGreedyHyp(h)
	}
}

func BenchmarkVGHFast(b *testing.B) {
	h := benchHyper(b, 5120, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VectorGreedyHyp(h)
	}
}

func BenchmarkVGHNaive(b *testing.B) {
	h := benchHyper(b, 5120, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vectorGreedyNaive(h)
	}
}

func BenchmarkEVGFast(b *testing.B) {
	h := benchHyper(b, 5120, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpectedVectorGreedyHyp(h)
	}
}

func BenchmarkEVGNaive(b *testing.B) {
	h := benchHyper(b, 5120, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expectedVectorNaive(h)
	}
}

// TestHyperTaskOrderStable: the counting sort orders tasks exactly as a
// stable comparison sort by degree does.
func TestHyperTaskOrderStable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5000; trial++ {
		n, p := 1+rng.Intn(60), 1+rng.Intn(8)
		b := hypergraph.NewBuilder(n, p)
		for task := 0; task < n; task++ {
			for d := 1 + rng.Intn(6); d > 0; d-- {
				b.AddEdge(task, []int{rng.Intn(p)}, 1)
			}
		}
		h := b.MustBuild()
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return cmp.Compare(h.TaskDegree(int(a)), h.TaskDegree(int(b)))
		})
		if got := hyperTaskOrder(h); !slices.Equal(got, want) {
			t.Fatalf("trial %d: order %v, want %v", trial, got, want)
		}
	}
}
