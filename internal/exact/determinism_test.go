package exact_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"semimatch/internal/bench"
	"semimatch/internal/bipartite"
	"semimatch/internal/exact"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
	"semimatch/internal/registry"
)

// outcome is everything a solve returns that must repeat.
type outcome struct {
	nodes int64
	m     int64
	a     []int32
	err   string
}

func (o outcome) equal(p outcome) bool {
	return o.nodes == p.nodes && o.m == p.m && o.err == p.err && slices.Equal(o.a, p.a)
}

func (o outcome) String() string {
	return fmt.Sprintf("nodes=%d makespan=%d err=%q", o.nodes, o.m, o.err)
}

// namedInstance is one determinism instance and its class's solver.
type namedInstance struct {
	name  string
	solve func(exact.Options) ([]int32, int64, error)
}

func graphInstance(name string, g *bipartite.Graph) namedInstance {
	return namedInstance{name, func(o exact.Options) ([]int32, int64, error) {
		return exact.SolveSingleProc(context.Background(), g, o)
	}}
}

func hyperInstance(name string, h *hypergraph.Hypergraph) namedInstance {
	return namedInstance{name, func(o exact.Options) ([]int32, int64, error) {
		return exact.SolveMultiProc(context.Background(), h, o)
	}}
}

func solveInstance(t *testing.T, ni namedInstance, opts exact.Options) outcome {
	t.Helper()
	var st exact.SearchStats
	opts.Stats = &st
	var o outcome
	var err error
	o.a, o.m, err = ni.solve(opts)
	if err != nil {
		o.err = err.Error()
		if !errors.Is(err, exact.ErrLimit) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	o.nodes = st.Nodes
	return o
}

// determinismInstances is the semibench -bench grid (seed 1 under
// -short, seeds 1 and 2 otherwise) plus FewgManyg instances of both
// classes.
func determinismInstances(t *testing.T) []namedInstance {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	var out []namedInstance
	for _, fam := range bench.DefaultPerfFamilies {
		for seed := 1; seed <= seeds; seed++ {
			name := fmt.Sprintf("%s/seed=%d", fam.Name, seed)
			if fam.Class == registry.SingleProc {
				g, err := bench.PerfGraph(fam, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, graphInstance(name, g))
				continue
			}
			h, err := bench.PerfHyper(fam, int64(seed))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, hyperInstance(name, h))
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		h, err := gen.Hypergraph(gen.HyperParams{Gen: gen.FewgManyg, N: 20, P: 4, Dv: 2, Dh: 3, G: 2, Weights: gen.Random, MaxW: 50}, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hyperInstance(fmt.Sprintf("fewgmanyg-hyper/seed=%d", seed), h))
		g, err := gen.Bipartite(gen.FewgManyg, 30, 6, 2, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, graphInstance(fmt.Sprintf("fewgmanyg-bipartite/seed=%d", seed), g))
	}
	return out
}

// TestRoundsDeterministic pins the parallel engine's contract: nodes,
// makespan, assignment and error of a solve depend only on the instance
// and the node budget — identical across repeated runs, GOMAXPROCS 1, 2
// and 4, and worker counts 2 and 4. The budget is small enough that the
// harder instances stop on it, so the budget stop is checked too: it
// lands exactly on the budget with the same incumbent every time.
func TestRoundsDeterministic(t *testing.T) {
	const budget = 150_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var stopped, complete int
	for _, ni := range determinismInstances(t) {
		opts := exact.Options{Workers: 4, MaxNodes: budget}
		want := solveInstance(t, ni, opts)
		check := func(label string, got outcome) {
			t.Helper()
			if !got.equal(want) {
				t.Fatalf("%s %s: got %v, want %v (or the assignments differ)", ni.name, label, got, want)
			}
		}
		for run := 1; run < 5; run++ {
			check(fmt.Sprintf("run %d", run+1), solveInstance(t, ni, opts))
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{2, 4} {
				check(fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers),
					solveInstance(t, ni, exact.Options{Workers: workers, MaxNodes: budget}))
			}
		}
		if want.err != "" {
			stopped++
			if want.nodes != budget {
				t.Fatalf("%s: budget stop after %d nodes, want exactly %d", ni.name, want.nodes, budget)
			}
		} else {
			complete++
		}
	}
	t.Logf("%d budget-stopped and %d complete solves", stopped, complete)
	if stopped == 0 || complete == 0 {
		t.Fatalf("%d budget-stopped and %d complete solves; the grid must exercise both", stopped, complete)
	}
}
