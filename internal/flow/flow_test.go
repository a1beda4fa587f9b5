package flow

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/gen"
	"semimatch/internal/matching"
)

func TestMaxFlowTextbook(t *testing.T) {
	// Classic 6-vertex example with max flow 23.
	g := NewNetwork(6)
	g.AddArc(0, 1, 16)
	g.AddArc(0, 2, 13)
	g.AddArc(1, 2, 10)
	g.AddArc(2, 1, 4)
	g.AddArc(1, 3, 12)
	g.AddArc(3, 2, 9)
	g.AddArc(2, 4, 14)
	g.AddArc(4, 3, 7)
	g.AddArc(3, 5, 20)
	g.AddArc(4, 5, 4)
	if f := g.MaxFlow(0, 5); f != 23 {
		t.Fatalf("max flow = %d, want 23", f)
	}
}

func TestMaxFlowTrivia(t *testing.T) {
	g := NewNetwork(2)
	if g.MaxFlow(0, 0) != 0 {
		t.Fatal("s==t must be 0")
	}
	if g.MaxFlow(0, 1) != 0 {
		t.Fatal("no arcs must be 0")
	}
	k := g.AddArc(0, 1, 5)
	if g.MaxFlow(0, 1) != 5 {
		t.Fatal("single arc")
	}
	if g.Flow(k) != 5 {
		t.Fatalf("arc flow = %d", g.Flow(k))
	}
}

func TestAddArcPanics(t *testing.T) {
	g := NewNetwork(1)
	for _, f := range []func(){
		func() { g.AddArc(0, 5, 1) },
		func() { g.AddArc(-1, 0, 1) },
		func() { g.AddArc(0, 0, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFlowMatchingEqualsHopcroftKarp(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 1+rng.Intn(30), 1+rng.Intn(15)
		b := bipartite.NewBuilder(n, p)
		for task := 0; task < n; task++ {
			d := 1 + rng.Intn(4)
			if d > p {
				d = p
			}
			for _, v := range rng.Perm(p)[:d] {
				b.AddEdge(task, v)
			}
		}
		g := b.MustBuild()
		net, s, t2, _ := MatchingNetwork(g, 1)
		flowCard := net.MaxFlow(s, t2)
		m, err := matching.HopcroftKarpCap(context.Background(), matching.Wrap(g.NLeft, g.NRight, g.Ptr, g.Adj), 1)
		if err != nil {
			t.Fatal(err)
		}
		return int(flowCard) == matching.Cardinality(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleDeadline(t *testing.T) {
	// 4 tasks on one processor: feasible iff d >= 4.
	b := bipartite.NewBuilder(4, 1)
	for task := 0; task < 4; task++ {
		b.AddEdge(task, 0)
	}
	g := b.MustBuild()
	if _, ok := FeasibleDeadline(g, 3); ok {
		t.Fatal("d=3 must be infeasible")
	}
	a, ok := FeasibleDeadline(g, 4)
	if !ok {
		t.Fatal("d=4 must be feasible")
	}
	for task, p := range a {
		if p != 0 {
			t.Fatalf("task %d assigned %d", task, p)
		}
	}
}

// TestExactViaFlowMatchesCore: on 300 random unit graphs (up to 60
// tasks and 12 processors, each task eligible on 1–4 of them) the flow
// bisection, core.ExactUnit and the paper's literal algorithm find the
// same optimum (checkExactUnit).
func TestExactViaFlowMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n, p := 1+rng.Intn(60), 1+rng.Intn(12)
		b := bipartite.NewBuilder(n, p)
		for task := 0; task < n; task++ {
			d := 1 + rng.Intn(4)
			if d > p {
				d = p
			}
			for _, v := range rng.Perm(p)[:d] {
				b.AddEdge(task, v)
			}
		}
		checkExactUnit(t, b.MustBuild())
	}
}

func TestExactViaFlowErrors(t *testing.T) {
	g, err := bipartite.NewFromAdjacency(1, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExactUnitViaFlow(g); err == nil {
		t.Fatal("isolated task accepted")
	}
	b := bipartite.NewBuilder(1, 1)
	b.AddWeightedEdge(0, 0, 2)
	if _, _, err := ExactUnitViaFlow(b.MustBuild()); err == nil {
		t.Fatal("weighted accepted")
	}
	empty, _ := bipartite.NewFromAdjacency(0, nil)
	if _, d, err := ExactUnitViaFlow(empty); err != nil || d != 0 {
		t.Fatalf("empty: %d %v", d, err)
	}
}

func TestExactViaFlowOnGeneratedInstances(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, err := gen.Bipartite(gen.FewgManyg, 640, 64, 8, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, d1, err := ExactUnitViaFlow(g)
		if err != nil {
			t.Fatal(err)
		}
		_, d2, err := core.ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("seed %d: flow %d vs matching %d", seed, d1, d2)
		}
	}
}

func BenchmarkExactViaFlow(b *testing.B) {
	g, err := gen.Bipartite(gen.FewgManyg, 5120, 256, 32, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactUnitViaFlow(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxFlowMatching(b *testing.B) {
	g, err := gen.Bipartite(gen.FewgManyg, 20480, 1024, 32, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, s, t, _ := MatchingNetwork(g, 20)
		net.MaxFlow(s, t)
	}
}

// TestReCappedNetworkMatchesFresh: re-capping every arc of a solved
// network and solving again gives the max flow of a freshly built
// network with those capacities, and the re-solve allocates nothing.
func TestReCappedNetworkMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type arc struct {
		u, v int
	}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		arcs := make([]arc, rng.Intn(40))
		for i := range arcs {
			arcs[i] = arc{rng.Intn(n), rng.Intn(n)}
		}
		caps := func() []int64 {
			c := make([]int64, len(arcs))
			for i := range c {
				c[i] = rng.Int63n(20)
			}
			return c
		}
		build := func(c []int64) (*Network, []int) {
			g := NewNetwork(n)
			ks := make([]int, len(arcs))
			for i, a := range arcs {
				ks[i] = g.AddArc(a.u, a.v, c[i])
			}
			return g, ks
		}
		s, sink := 0, n-1
		g, ks := build(caps())
		g.MaxFlow(s, sink)
		for round := 0; round < 4; round++ {
			c := caps()
			recap := func() {
				for i, k := range ks {
					g.SetCap(k, c[i])
				}
			}
			recap()
			fresh, _ := build(c)
			if got, want := g.MaxFlow(s, sink), fresh.MaxFlow(s, sink); got != want {
				t.Fatalf("trial %d round %d: re-capped max flow %d, fresh %d", trial, round, got, want)
			}
			if allocs := testing.AllocsPerRun(5, func() { recap(); g.MaxFlow(s, sink) }); allocs != 0 {
				t.Fatalf("trial %d: re-solving a re-capped network allocated %v times", trial, allocs)
			}
		}
	}
}
