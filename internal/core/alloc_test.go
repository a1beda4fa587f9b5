package core

import (
	"testing"

	"semimatch/internal/hypergraph"
)

// allocHyper builds n tasks on 8 processors: task t has 1 + t%3
// configurations, on 1, 2 and 3 processors spaced three apart, so every
// instance with n ≥ 3 has the same largest configuration and union.
func allocHyper(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n, 8)
	for t := 0; t < n; t++ {
		for size := 1; size <= 1+t%3; size++ {
			procs := make([]int, size)
			for i := range procs {
				procs[i] = (t + 3*i) % 8
			}
			b.AddEdge(t, procs, int64(1+(7*t+size)%9))
		}
	}
	return b.MustBuild()
}

// TestVectorGreedyAllocationBudget keeps the fast vector greedies free of
// per-task allocation: a call allocates its result, the task order, the
// loads and comparison buffers that grow to the largest pair of
// configurations, a small constant that is the same for 50 tasks as for
// 200.
func TestVectorGreedyAllocationBudget(t *testing.T) {
	const maxAllocs = 64
	algs := []struct {
		name string
		run  func(*hypergraph.Hypergraph)
	}{
		{"VGH", func(h *hypergraph.Hypergraph) { VectorGreedyHyp(h) }},
		{"EVG", func(h *hypergraph.Hypergraph) { ExpectedVectorGreedyHyp(h) }},
		{"EVG-X", func(h *hypergraph.Hypergraph) {
			if _, err := ExpectedVectorGreedyHypExact(h); err != nil {
				t.Fatal(err)
			}
		}},
	}
	small, large := allocHyper(50), allocHyper(200)
	for _, alg := range algs {
		nSmall := testing.AllocsPerRun(20, func() { alg.run(small) })
		nLarge := testing.AllocsPerRun(20, func() { alg.run(large) })
		t.Logf("%s: %.0f allocations at 50 tasks, %.0f at 200", alg.name, nSmall, nLarge)
		if nLarge > maxAllocs {
			t.Errorf("%s allocates %.0f times on 200 tasks, budget %d", alg.name, nLarge, maxAllocs)
		}
		if nSmall != nLarge {
			t.Errorf("%s allocates %.0f times on 50 tasks but %.0f on 200: per-task allocation", alg.name, nSmall, nLarge)
		}
	}
}
