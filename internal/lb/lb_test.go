package lb

import (
	"context"
	"math/rand"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
)

// bruteSP returns the optimal SINGLEPROC makespan by enumeration.
func bruteSP(t *testing.T, g *bipartite.Graph) int64 {
	t.Helper()
	loads := make([]int64, g.NRight)
	best := int64(1) << 62
	var rec func(task int, cur int64)
	rec = func(task int, cur int64) {
		if cur >= best {
			return
		}
		if task == g.NLeft {
			best = cur
			return
		}
		row := g.Neighbors(task)
		w := g.Weights(task)
		for k, proc := range row {
			wt := int64(1)
			if w != nil {
				wt = w[k]
			}
			loads[proc] += wt
			nc := cur
			if loads[proc] > nc {
				nc = loads[proc]
			}
			rec(task+1, nc)
			loads[proc] -= wt
		}
	}
	rec(0, 0)
	return best
}

// bruteMP returns the optimal MULTIPROC makespan by enumeration.
func bruteMP(t *testing.T, h *hypergraph.Hypergraph) int64 {
	t.Helper()
	loads := make([]int64, h.NProcs)
	best := int64(1) << 62
	var rec func(task int, cur int64)
	rec = func(task int, cur int64) {
		if cur >= best {
			return
		}
		if task == h.NTasks {
			best = cur
			return
		}
		for _, e := range h.TaskEdges(task) {
			w := h.Weight[e]
			pins := h.EdgeProcs(e)
			nc := cur
			for _, u := range pins {
				loads[u] += w
				if loads[u] > nc {
					nc = loads[u]
				}
			}
			rec(task+1, nc)
			for _, u := range pins {
				loads[u] -= w
			}
		}
	}
	rec(0, 0)
	return best
}

func randGraph(rng *rand.Rand, n, p, deg int, wmax int64) *bipartite.Graph {
	b := bipartite.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		perm := rng.Perm(p)
		d := 1 + rng.Intn(deg)
		if d > p {
			d = p
		}
		for _, proc := range perm[:d] {
			b.AddWeightedEdge(t, proc, 1+rng.Int63n(wmax))
		}
	}
	return b.MustBuild()
}

func randHyperLB(rng *rand.Rand, n, p, deg, maxSize int, wmax int64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		d := 1 + rng.Intn(deg)
		for e := 0; e < d; e++ {
			sz := 1 + rng.Intn(maxSize)
			if sz > p {
				sz = p
			}
			perm := rng.Perm(p)
			b.AddEdge(t, perm[:sz], 1+rng.Int63n(wmax))
		}
	}
	return b.MustBuild()
}

// trivialBound is max(⌈Σm/p⌉, max m) over the min-placement items — the
// floor every stronger bound must meet.
func trivialBound(items []int64, p int) int64 {
	var sum, mx int64
	for _, x := range items {
		sum += x
		if x > mx {
			mx = x
		}
	}
	lb := (sum + int64(p) - 1) / int64(p)
	if mx > lb {
		lb = mx
	}
	return lb
}

// TestPackingSandwich: on random item sets, Packing is at least the
// trivial bound and at most the true identical-machines optimum
// (computed by brute force over machine assignments).
func TestPackingSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(9)
		p := 2 + rng.Intn(3)
		items := make([]int64, n)
		for i := range items {
			items[i] = 1 + rng.Int63n(40)
		}
		got := Packing(items, p)
		// Brute-force P||Cmax: every item may go anywhere.
		b := bipartite.NewBuilder(n, p)
		for i, w := range items {
			for proc := 0; proc < p; proc++ {
				b.AddWeightedEdge(i, proc, w)
			}
		}
		opt := bruteSP(t, b.MustBuild())
		triv := trivialBound(items, p)
		if got < triv {
			t.Fatalf("trial %d: packing %d below trivial bound %d (items %v, p=%d)", trial, got, triv, items, p)
		}
		if got > opt {
			t.Fatalf("trial %d: packing %d exceeds optimum %d (items %v, p=%d)", trial, got, opt, items, p)
		}
	}
}

// TestPackingKnown: hand-built cases where L2 must beat L1.
func TestPackingKnown(t *testing.T) {
	cases := []struct {
		items []int64
		p     int
		want  int64
	}{
		{[]int64{6, 6, 6}, 2, 12},         // 3 items, 2 machines: two share
		{[]int64{5, 5, 5, 5, 5}, 2, 15},   // 5 items on 2: three share
		{[]int64{7, 7, 7, 1, 1, 1}, 3, 8}, // each 7 pairs with a 1
		{[]int64{10}, 3, 10},
		{nil, 4, 0},
		{[]int64{3, 3, 3}, 1, 9},
	}
	for i, c := range cases {
		if got := Packing(c.items, c.p); got != c.want {
			t.Fatalf("case %d: Packing(%v, %d) = %d, want %d", i, c.items, c.p, got, c.want)
		}
	}
}

// TestMatchingGraphSandwich: on the singleton lift of a graph, the flow
// bound sits between the trivial bound and the brute-force SINGLEPROC
// optimum on random weighted instances.
func TestMatchingGraphSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 120; trial++ {
		g := randGraph(rng, 3+rng.Intn(7), 2+rng.Intn(3), 3, 30)
		h := hypergraph.FromGraph(g)
		got := MatchingHyper(h)
		opt := bruteSP(t, g)
		triv := trivialBound(MinPlacementsHyper(h), g.NRight)
		if got < triv {
			t.Fatalf("trial %d: matching %d below trivial %d", trial, got, triv)
		}
		if got > opt {
			t.Fatalf("trial %d: matching %d exceeds optimum %d", trial, got, opt)
		}
	}
}

// TestMatchingGraphUnitExact: for unit SINGLEPROC the relaxation is the
// replicated-matching feasibility oracle, so the bound equals the
// optimum computed by the existing exact flow solver.
func TestMatchingGraphUnitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(10)
		p := 2 + rng.Intn(4)
		b := bipartite.NewBuilder(n, p)
		for task := 0; task < n; task++ {
			perm := rng.Perm(p)
			d := 1 + rng.Intn(3)
			if d > p {
				d = p
			}
			for _, proc := range perm[:d] {
				b.AddEdge(task, proc)
			}
		}
		g := b.MustBuild()
		_, opt, err := core.ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got := MatchingHyper(hypergraph.FromGraph(g)); got != opt {
			t.Fatalf("trial %d: unit matching bound %d ≠ optimum %d", trial, got, opt)
		}
	}
}

// TestMatchingHyperSandwich: same sandwich for the hypergraph variant.
func TestMatchingHyperSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 120; trial++ {
		h := randHyperLB(rng, 3+rng.Intn(6), 2+rng.Intn(3), 3, 2, 25)
		got := MatchingHyper(h)
		opt := bruteMP(t, h)
		triv := trivialBound(MinPlacementsHyper(h), h.NProcs)
		if got < triv {
			t.Fatalf("trial %d: matching %d below trivial %d", trial, got, triv)
		}
		if got > opt {
			t.Fatalf("trial %d: matching %d exceeds optimum %d", trial, got, opt)
		}
	}
}

// TestPackingSandwichHyper: Packing over MinPlacementsHyper stays a
// valid lower bound for true MULTIPROC optima (the relaxation argument).
func TestPackingSandwichHyper(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		h := randHyperLB(rng, 3+rng.Intn(6), 2+rng.Intn(3), 3, 2, 25)
		got := Packing(MinPlacementsHyper(h), h.NProcs)
		opt := bruteMP(t, h)
		if got > opt {
			t.Fatalf("trial %d: packing %d exceeds MULTIPROC optimum %d", trial, got, opt)
		}
	}
}

// TestMatchingDominatesTrivial: on partition-shaped instances (every
// task everywhere) the matching bound reduces to at least the packing
// L1; on restricted instances it can strictly exceed it. Check a case
// where eligibility structure forces a higher bound than any
// load-average argument.
func TestMatchingSeesStructure(t *testing.T) {
	// Two tasks, two procs, but both tasks only reach proc 0.
	b := bipartite.NewBuilder(2, 2)
	b.AddWeightedEdge(0, 0, 5)
	b.AddWeightedEdge(1, 0, 5)
	g := b.MustBuild()
	// avg = ⌈10/2⌉ = 5, maxElem = 5, but both 5s must share proc 0.
	if got := MatchingHyper(hypergraph.FromGraph(g)); got != 10 {
		t.Fatalf("matching bound %d, want 10 (both tasks confined to one proc)", got)
	}
}
