package hypergraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"semimatch/internal/bipartite"
)

// fig2 builds the hypergraph of Fig. 2 in the paper:
//
//	T1: {P1} or {P2,P3};  T2: {P1,P2} or {P2,P3};  T3: {P3};  T4: {P3}.
//
// (0-based here.)
func fig2(t *testing.T) *Hypergraph {
	t.Helper()
	b := NewBuilder(4, 3)
	b.AddEdge(0, []int{0}, 1)
	b.AddEdge(0, []int{1, 2}, 1)
	b.AddEdge(1, []int{0, 1}, 1)
	b.AddEdge(1, []int{1, 2}, 1)
	b.AddEdge(2, []int{2}, 1)
	b.AddEdge(3, []int{2}, 1)
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestFig2Structure(t *testing.T) {
	h := fig2(t)
	if h.NTasks != 4 || h.NProcs != 3 || h.NumEdges() != 6 || h.NumPins() != 9 {
		t.Fatalf("sizes wrong: %d tasks, %d procs, %d edges, %d pins", h.NTasks, h.NProcs, h.NumEdges(), h.NumPins())
	}
	if !h.Unit() {
		t.Fatal("Fig. 2 instance is unit-weighted")
	}
	if h.TaskDegree(0) != 2 || h.TaskDegree(2) != 1 {
		t.Fatalf("task degrees wrong")
	}
	e := h.TaskEdges(0)
	if len(e) != 2 {
		t.Fatalf("task 0 edges = %v", e)
	}
	if got := h.EdgeProcs(e[1]); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("EdgeProcs = %v", got)
	}
	for _, eid := range h.TaskEdges(3) {
		if h.Owner[eid] != 3 {
			t.Fatalf("Owner[%d] = %d", eid, h.Owner[eid])
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderInsertionOrderAcrossTasks(t *testing.T) {
	// Interleave tasks: builder must group per task preserving order.
	b := NewBuilder(2, 4)
	b.AddEdge(1, []int{0}, 1)
	b.AddEdge(0, []int{1}, 1)
	b.AddEdge(1, []int{2}, 1)
	b.AddEdge(0, []int{3}, 1)
	h := b.MustBuild()
	if got := h.EdgeProcs(h.TaskEdges(0)[0])[0]; got != 1 {
		t.Fatalf("task 0 first config proc = %d, want 1", got)
	}
	if got := h.EdgeProcs(h.TaskEdges(0)[1])[0]; got != 3 {
		t.Fatalf("task 0 second config proc = %d, want 3", got)
	}
	if got := h.EdgeProcs(h.TaskEdges(1)[0])[0]; got != 0 {
		t.Fatalf("task 1 first config proc = %d, want 0", got)
	}
}

// TestBuilderSharedBuildStaysImmutable: a Build of hyperedges added in
// task order shares the builder's arrays. Adding and building more must
// leave the first hypergraph as it was, and a presized builder must
// equal a plain one.
func TestBuilderSharedBuildStaysImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, p = 30, 6
	var edges, pins int
	type cfg struct {
		procs []int
		w     int64
	}
	cfgs := make([][]cfg, n)
	for task := range cfgs {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			procs := rng.Perm(p)[:1+rng.Intn(p)] // unsorted, as callers may pass them
			cfgs[task] = append(cfgs[task], cfg{procs, 1 + rng.Int63n(9)})
			edges++
			pins += len(procs)
		}
	}
	// Room for the configurations and for the two hyperedges AllocsPerRun
	// adds (a warm-up run and a measured one).
	plain, sized := NewBuilder(n+1, p), NewBuilderSize(n+1, p, edges+2, pins+2)
	for task, cs := range cfgs {
		for _, c := range cs {
			plain.AddEdge(task, c.procs, c.w)
			sized.AddEdge(task, c.procs, c.w)
		}
	}
	plain.AddEdge(n, []int{0}, 1)
	plain.AddEdge(n, []int{0}, 1)
	if allocs := testing.AllocsPerRun(1, func() { sized.AddEdge(n, []int{0}, 1) }); allocs != 0 {
		t.Fatalf("presized builder allocated %v times on an edge it had room for", allocs)
	}
	h1 := sized.MustBuild()
	if want := plain.MustBuild(); !reflect.DeepEqual(h1, want) {
		t.Fatalf("presized build differs from a plain one")
	}
	snapshot := *h1
	for _, f := range []*[]int32{&snapshot.TaskPtr, &snapshot.Edges, &snapshot.PinPtr, &snapshot.Pins, &snapshot.Owner} {
		*f = slices.Clone(*f)
	}
	snapshot.Weight = slices.Clone(snapshot.Weight)
	// More hyperedges, one of them out of task order, then a second Build.
	sized.AddEdge(0, []int{5, 1, 3}, 7)
	sized.AddEdge(n, []int{4, 2}, 2)
	h2 := sized.MustBuild()
	if !reflect.DeepEqual(*h1, snapshot) {
		t.Fatal("a later AddEdge and Build changed an earlier hypergraph")
	}
	if err := h1.Validate(); err != nil {
		t.Fatal(err)
	}
	if h2.NumEdges() != h1.NumEdges()+2 || h2.TaskDegree(0) != h1.TaskDegree(0)+1 {
		t.Fatalf("second build has %d hyperedges, task 0 degree %d", h2.NumEdges(), h2.TaskDegree(0))
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func() *Builder
	}{
		{"task out of range", func() *Builder {
			b := NewBuilder(1, 1)
			b.AddEdge(3, []int{0}, 1)
			return b
		}},
		{"proc out of range", func() *Builder {
			b := NewBuilder(1, 1)
			b.AddEdge(0, []int{5}, 1)
			return b
		}},
		{"task without config", func() *Builder {
			b := NewBuilder(2, 1)
			b.AddEdge(0, []int{0}, 1)
			return b
		}},
		{"empty processor set", func() *Builder {
			b := NewBuilder(1, 1)
			b.AddEdge(0, nil, 1)
			return b
		}},
		{"duplicate processor in config", func() *Builder {
			b := NewBuilder(1, 2)
			b.AddEdge(0, []int{1, 1}, 1)
			return b
		}},
		{"non-positive weight", func() *Builder {
			b := NewBuilder(1, 1)
			b.AddEdge(0, []int{0}, 0)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.f().Build(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestWeightsAndUnitFlag(t *testing.T) {
	b := NewBuilder(1, 2)
	b.AddEdge(0, []int{0}, 4)
	b.AddEdge(0, []int{0, 1}, 2)
	h := b.MustBuild()
	if h.Unit() {
		t.Fatal("expected weighted")
	}
	mn, mx := h.MinMaxEdgeSize()
	if mn != 1 || mx != 2 {
		t.Fatalf("MinMaxEdgeSize = %d,%d", mn, mx)
	}
}

func TestPinsSorted(t *testing.T) {
	b := NewBuilder(1, 5)
	b.AddEdge(0, []int{4, 0, 2}, 1)
	h := b.MustBuild()
	if got := h.EdgeProcs(0); !reflect.DeepEqual(got, []int32{0, 2, 4}) {
		t.Fatalf("pins = %v, want sorted", got)
	}
}

// TestFromGraph: the singleton lift validates, keeps g's edge order as
// hyperedge ids (edge k ↔ hyperedge k), and carries the weights and the
// unit flag.
func TestFromGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n, p := 1+rng.Intn(8), 1+rng.Intn(5)
		unit := trial%2 == 0
		gb := bipartite.NewBuilder(n, p)
		for task := 0; task < n; task++ {
			for _, proc := range rng.Perm(p)[:1+rng.Intn(p)] {
				w := int64(1)
				if !unit {
					w = 1 + rng.Int63n(9)
				}
				gb.AddWeightedEdge(task, proc, w)
			}
		}
		g := gb.MustBuild()
		h := FromGraph(g)
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if h.NTasks != n || h.NProcs != p || h.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: %d tasks, %d procs, %d hyperedges; want %d, %d, %d",
				trial, h.NTasks, h.NProcs, h.NumEdges(), n, p, g.NumEdges())
		}
		if h.Unit() != g.Unit() {
			t.Fatalf("trial %d: unit flag %v, graph unit %v", trial, h.Unit(), g.Unit())
		}
		for task := 0; task < n; task++ {
			for k := g.Ptr[task]; k < g.Ptr[task+1]; k++ {
				if h.Owner[k] != int32(task) || h.EdgeSize(k) != 1 ||
					h.EdgeProcs(k)[0] != g.Adj[k] || h.Weight[k] != g.EdgeWeight(k) {
					t.Fatalf("trial %d: hyperedge %d does not mirror edge %d", trial, k, k)
				}
			}
		}
	}
}

// TestEdgesProcsOf: the schedule translation between g's task →
// processor encoding and FromGraph(g)'s edge encoding round-trips, keeps
// unassigned entries, and rejects a schedule g cannot run.
func TestEdgesProcsOf(t *testing.T) {
	g, err := bipartite.NewFromAdjacency(3, [][]int{{0, 2}, {1}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	procs := []int32{2, 1, 0}
	edges := EdgesOf(g, procs)
	if !slices.Equal(edges, []int32{1, 2, 3}) {
		t.Fatalf("EdgesOf = %v, want [1 2 3]", edges)
	}
	if got := ProcsOf(g, edges); !slices.Equal(got, procs) {
		t.Fatalf("ProcsOf = %v, want %v", got, procs)
	}
	if got := ProcsOf(g, []int32{-1, 2, -1}); !slices.Equal(got, []int32{-1, 1, -1}) {
		t.Fatalf("ProcsOf kept %v, want [-1 1 -1]", got)
	}
	for _, bad := range [][]int32{nil, {2, 1}, {1, 1, 0}, {-1, 1, 0}} {
		if got := EdgesOf(g, bad); got != nil {
			t.Fatalf("EdgesOf(%v) = %v, want nil", bad, got)
		}
	}
}

// randomHypergraph builds a random valid instance; exported to sibling
// packages' tests via this helper pattern (duplicated where needed).
func randomHypergraph(rng *rand.Rand, nTasks, nProcs, maxDeg, maxSize int, maxW int64) *Hypergraph {
	b := NewBuilder(nTasks, nProcs)
	for t := 0; t < nTasks; t++ {
		d := 1 + rng.Intn(maxDeg)
		for j := 0; j < d; j++ {
			size := 1 + rng.Intn(maxSize)
			if size > nProcs {
				size = nProcs
			}
			procs := rng.Perm(nProcs)[:size]
			b.AddEdge(t, procs, 1+rng.Int63n(maxW))
		}
	}
	return b.MustBuild()
}

func TestRandomInstancesValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 1+rng.Intn(20), 1+rng.Intn(10), 4, 5, 9)
		if h.Validate() != nil {
			return false
		}
		// Owner/TaskEdges bijection: every edge appears exactly once.
		seen := make([]bool, h.NumEdges())
		for task := 0; task < h.NTasks; task++ {
			for _, e := range h.TaskEdges(task) {
				if seen[e] {
					return false
				}
				seen[e] = true
			}
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxEdgeSizeEmpty(t *testing.T) {
	h := &Hypergraph{NTasks: 0, NProcs: 0, TaskPtr: []int32{0}, PinPtr: []int32{0}, unit: true}
	mn, mx := h.MinMaxEdgeSize()
	if mn != 0 || mx != 0 {
		t.Fatalf("empty MinMax = %d,%d", mn, mx)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const nTasks, nProcs = 5000, 256
	type cfg struct {
		t     int
		procs []int
	}
	var cfgs []cfg
	for t := 0; t < nTasks; t++ {
		d := 1 + rng.Intn(5)
		for j := 0; j < d; j++ {
			size := 1 + rng.Intn(10)
			cfgs = append(cfgs, cfg{t, rng.Perm(nProcs)[:size]})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(nTasks, nProcs)
		for _, c := range cfgs {
			bl.AddEdge(c.t, c.procs, 1)
		}
		if _, err := bl.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
