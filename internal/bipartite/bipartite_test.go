package bipartite

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, nRight int, rows [][]int) *Graph {
	t.Helper()
	g, err := NewFromAdjacency(nRight, rows)
	if err != nil {
		t.Fatalf("NewFromAdjacency: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	// Fig. 1 of the paper: T1 -> {P1,P2}, T2 -> {P1}.
	g := mustGraph(t, 2, [][]int{{0, 1}, {0}})
	if g.NLeft != 2 || g.NRight != 2 || g.NumEdges() != 3 {
		t.Fatalf("unexpected sizes: %+v", g)
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	if !g.Unit() {
		t.Fatal("expected unit graph")
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderUnsortedInput(t *testing.T) {
	b := NewBuilder(2, 3)
	b.AddEdge(1, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("row 0 = %v", got)
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("row 1 = %v", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(b *Builder)
	}{
		{"left out of range", func(b *Builder) { b.AddEdge(5, 0) }},
		{"negative left", func(b *Builder) { b.AddEdge(-1, 0) }},
		{"right out of range", func(b *Builder) { b.AddEdge(0, 9) }},
		{"duplicate edge", func(b *Builder) { b.AddEdge(0, 0); b.AddEdge(0, 0) }},
		{"zero weight", func(b *Builder) { b.AddWeightedEdge(0, 0, 0) }},
		{"negative weight", func(b *Builder) { b.AddWeightedEdge(0, 0, -3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(2, 2)
			tc.f(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestWeightedBuild(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddWeightedEdge(0, 1, 7)
	b.AddWeightedEdge(0, 0, 3)
	b.AddWeightedEdge(1, 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Unit() {
		t.Fatal("expected weighted graph")
	}
	if got := g.Weights(0); !reflect.DeepEqual(got, []int64{3, 7}) {
		t.Fatalf("Weights(0) = %v (rows must be co-sorted with Adj)", got)
	}
	if g.EdgeWeight(g.Ptr[1]) != 1 {
		t.Fatalf("EdgeWeight(row1[0]) = %d", g.EdgeWeight(g.Ptr[1]))
	}
}

func TestAllUnitWeightsStayUnit(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddWeightedEdge(0, 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Unit() {
		t.Fatal("graph with only weight-1 edges should be unit")
	}
}

func TestReplicateRight(t *testing.T) {
	g := mustGraph(t, 2, [][]int{{0, 1}, {0}})
	gd := g.ReplicateRight(3)
	if gd.NRight != 6 {
		t.Fatalf("NRight = %d, want 6", gd.NRight)
	}
	if gd.NumEdges() != 9 {
		t.Fatalf("edges = %d, want 9", gd.NumEdges())
	}
	// Task 1 was adjacent to processor 0 only; now to copies 0,1,2.
	if got := gd.Neighbors(1); !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if err := gd.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateRightD1Identity(t *testing.T) {
	g := mustGraph(t, 4, [][]int{{0, 3}, {1}, {2, 3}})
	gd := g.ReplicateRight(1)
	if !reflect.DeepEqual(gd.Adj, g.Adj) || !reflect.DeepEqual(gd.Ptr, g.Ptr) {
		t.Fatal("ReplicateRight(1) must be the identity on structure")
	}
}

func TestReplicateRightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for d=0")
		}
	}()
	g := mustGraph(t, 1, [][]int{{0}})
	g.ReplicateRight(0)
}

func TestRightDegrees(t *testing.T) {
	g := mustGraph(t, 3, [][]int{{0, 1}, {1}, {1, 2}})
	if got := g.RightDegrees(); !reflect.DeepEqual(got, []int32{1, 3, 1}) {
		t.Fatalf("RightDegrees = %v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustGraph(t, 3, [][]int{{0, 1}, {2}})
	g.Adj[0] = 7 // out of range
	if err := g.Validate(); err == nil {
		t.Fatal("expected range error")
	}
	g.Adj[0] = 1 // duplicate within row 0
	if err := g.Validate(); err == nil {
		t.Fatal("expected duplicate error")
	}
}

// randomGraph builds a random bipartite graph where each (u,v) edge exists
// independently with probability prob. Shared by property tests in this
// package.
func randomGraph(rng *rand.Rand, nLeft, nRight int, prob float64) *Graph {
	b := NewBuilder(nLeft, nRight)
	for u := 0; u < nLeft; u++ {
		for v := 0; v < nRight; v++ {
			if rng.Float64() < prob {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestReplicateDegreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.3)
		d := 1 + rng.Intn(4)
		gd := g.ReplicateRight(d)
		for u := 0; u < g.NLeft; u++ {
			if gd.Degree(u) != d*g.Degree(u) {
				return false
			}
		}
		return gd.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const nLeft, nRight, deg = 20000, 1000, 10
	type edge struct{ u, v int32 }
	edges := make([]edge, 0, nLeft*deg)
	for u := 0; u < nLeft; u++ {
		seen := map[int32]bool{}
		for len(seen) < deg {
			v := int32(rng.Intn(nRight))
			if !seen[v] {
				seen[v] = true
				edges = append(edges, edge{int32(u), v})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(nLeft, nRight)
		for _, e := range edges {
			bl.AddEdge(int(e.u), int(e.v))
		}
		if _, err := bl.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
