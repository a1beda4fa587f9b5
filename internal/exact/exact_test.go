package exact

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"semimatch/internal/adversarial"
	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
)

func randomUnitGraph(rng *rand.Rand, n, p, maxDeg int) *bipartite.Graph {
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

func randomWeightedGraph(rng *rand.Rand, n, p, maxDeg int, maxW int64) *bipartite.Graph {
	b := bipartite.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		d := 1 + rng.Intn(maxDeg)
		if d > p {
			d = p
		}
		for _, v := range rng.Perm(p)[:d] {
			b.AddWeightedEdge(t, v, 1+rng.Int63n(maxW))
		}
	}
	return b.MustBuild()
}

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

func TestSolveSingleProcUnitMatchesPolynomialExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := randomUnitGraph(rng, 1+rng.Intn(15), 1+rng.Intn(6), 4)
		a, m, err := SolveSingleProc(context.Background(), g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ValidateAssignment(g, a); err != nil {
			t.Fatal(err)
		}
		if core.Makespan(g, a) != m {
			t.Fatalf("reported %d != assignment makespan %d", m, core.Makespan(g, a))
		}
		_, want, err := core.ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if m != want {
			t.Fatalf("trial %d: B&B %d, matching-based exact %d", trial, m, want)
		}
	}
}

func TestSolveSingleProcWeighted(t *testing.T) {
	// Cross-check against exhaustive enumeration on tiny instances.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		g := randomWeightedGraph(rng, 1+rng.Intn(7), 1+rng.Intn(4), 3, 9)
		_, m, err := SolveSingleProc(context.Background(), g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := enumSingle(g); m != want {
			t.Fatalf("trial %d: B&B %d, enumeration %d", trial, m, want)
		}
	}
}

// enumSingle exhaustively enumerates all assignments (no pruning at all) —
// an implementation-independent oracle.
func enumSingle(g *bipartite.Graph) int64 {
	loads := make([]int64, g.NRight)
	best := int64(1) << 62
	var rec func(t int)
	rec = func(t int) {
		if t == g.NLeft {
			m := int64(0)
			for _, l := range loads {
				if l > m {
					m = l
				}
			}
			if m < best {
				best = m
			}
			return
		}
		row := g.Neighbors(t)
		w := g.Weights(t)
		for i, p := range row {
			wt := int64(1)
			if w != nil {
				wt = w[i]
			}
			loads[p] += wt
			rec(t + 1)
			loads[p] -= wt
		}
	}
	rec(0)
	return best
}

func TestSolveSingleProcErrors(t *testing.T) {
	g, err := bipartite.NewFromAdjacency(2, [][]int{{0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveSingleProc(context.Background(), g, Options{Workers: 1}); err == nil {
		t.Fatal("isolated task accepted")
	}
	empty, _ := bipartite.NewFromAdjacency(0, nil)
	if _, m, err := SolveSingleProc(context.Background(), empty, Options{Workers: 1}); err != nil || m != 0 {
		t.Fatalf("empty: m=%d err=%v", m, err)
	}
}

func TestSolveSingleProcNodeLimit(t *testing.T) {
	// Instances whose greedy incumbent meets the root bound are closed
	// without searching (no ErrLimit however small the budget), so scan
	// seeds for one the bounds leave open.
	for seed := int64(3); seed < 23; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomWeightedGraph(rng, 20, 4, 4, 50)
		_, m, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, MaxNodes: 5})
		if err == nil {
			continue // proven optimal at the root; try another instance
		}
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("seed %d: expected ErrLimit, got %v", seed, err)
		}
		// Even with the limit, the incumbent (greedy) is a valid makespan.
		if m <= 0 {
			t.Fatalf("incumbent makespan %d", m)
		}
		return
	}
	t.Fatal("every probe instance closed at the root; node limit never exercised")
}

func TestSolveMultiProcAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		h := randomHyper(rng, 1+rng.Intn(6), 1+rng.Intn(4), 3, 3, 6)
		a, m, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ValidateHyperAssignment(h, a); err != nil {
			t.Fatal(err)
		}
		if core.HyperMakespan(h, a) != m {
			t.Fatalf("reported %d != makespan %d", m, core.HyperMakespan(h, a))
		}
		if want := enumHyper(h); m != want {
			t.Fatalf("trial %d: B&B %d, enumeration %d", trial, m, want)
		}
	}
}

func enumHyper(h *hypergraph.Hypergraph) int64 {
	loads := make([]int64, h.NProcs)
	best := int64(1) << 62
	var rec func(t int)
	rec = func(t int) {
		if t == h.NTasks {
			m := int64(0)
			for _, l := range loads {
				if l > m {
					m = l
				}
			}
			if m < best {
				best = m
			}
			return
		}
		for _, e := range h.TaskEdges(t) {
			w := h.Weight[e]
			for _, u := range h.EdgeProcs(e) {
				loads[u] += w
			}
			rec(t + 1)
			for _, u := range h.EdgeProcs(e) {
				loads[u] -= w
			}
		}
	}
	rec(0)
	return best
}

func TestSolveMultiProcSandwich(t *testing.T) {
	// LB ≤ OPT ≤ every heuristic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHyper(rng, 1+rng.Intn(10), 1+rng.Intn(5), 3, 3, 5)
		_, opt, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
		if err != nil {
			return false
		}
		if core.LowerBound(h) > opt {
			return false
		}
		for _, alg := range []func(*hypergraph.Hypergraph) core.HyperAssignment{
			core.SortedGreedyHyp, core.VectorGreedyHyp, core.ExpectedGreedyHyp, core.ExpectedVectorGreedyHyp,
		} {
			if core.HyperMakespan(h, alg(h)) < opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveX3CBasic(t *testing.T) {
	x := adversarial.X3C{Q: 2, Sets: [][3]int{{0, 1, 2}, {3, 4, 5}, {1, 2, 3}}}
	cover, ok := SolveX3C(x)
	if !ok {
		t.Fatal("cover exists")
	}
	if len(cover) != 2 {
		t.Fatalf("cover size %d", len(cover))
	}
	seen := map[int]bool{}
	for _, si := range cover {
		for _, e := range x.Sets[si] {
			if seen[e] {
				t.Fatal("overlapping cover")
			}
			seen[e] = true
		}
	}
	if len(seen) != 6 {
		t.Fatal("cover incomplete")
	}

	no := adversarial.X3C{Q: 2, Sets: [][3]int{{0, 1, 2}, {1, 2, 3}}}
	if _, ok := SolveX3C(no); ok {
		t.Fatal("no cover exists")
	}
}

// Theorem 1 equivalence: the reduction instance has optimal makespan 1 iff
// the X3C instance has an exact cover.
func TestTheorem1Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	covers, nonCovers := 0, 0
	for trial := 0; trial < 40; trial++ {
		q := 2 + rng.Intn(3)
		planted := rng.Intn(2) == 0
		x := adversarial.RandomX3C(rng, q, 2+rng.Intn(4), planted)
		_, hasCover := SolveX3C(x)
		h, err := x.ToMultiproc()
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := SolveMultiProc(context.Background(), h, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if hasCover != (opt == 1) {
			t.Fatalf("trial %d: cover=%v but optimal makespan=%d", trial, hasCover, opt)
		}
		if hasCover {
			covers++
		} else {
			nonCovers++
		}
	}
	if covers == 0 || nonCovers == 0 {
		t.Fatalf("degenerate sample: %d covers, %d non-covers", covers, nonCovers)
	}
}

// hardHyper builds a number-partitioning instance (every task eligible on
// every processor, large random weights): proving optimality on these takes
// billions of search nodes, so the full search runs far beyond any test
// timeout unless cancelled.
func hardHyper() *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(7))
	const n, p = 24, 3
	b := hypergraph.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		w := 100_000_000 + rng.Int63n(900_000_000)
		for u := 0; u < p; u++ {
			b.AddEdge(t, []int{u}, w)
		}
	}
	return b.MustBuild()
}

// hardGraph is the bipartite analog of hardHyper.
func hardGraph() *bipartite.Graph {
	rng := rand.New(rand.NewSource(7))
	const n, p = 24, 3
	b := bipartite.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		w := 100_000_000 + rng.Int63n(900_000_000)
		for u := 0; u < p; u++ {
			b.AddWeightedEdge(t, u, w)
		}
	}
	return b.MustBuild()
}

func TestSolveMultiProcCtxCancelStopsPromptly(t *testing.T) {
	h := hardHyper()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	a, m, err := SolveMultiProc(ctx, h, Options{Workers: 1, MaxNodes: 1 << 60})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The incumbent is still a complete, valid schedule.
	if err := core.ValidateHyperAssignment(h, a); err != nil {
		t.Fatal(err)
	}
	if core.HyperMakespan(h, a) != m {
		t.Fatalf("reported %d != makespan %d", m, core.HyperMakespan(h, a))
	}
}

func TestSolveSingleProcCtxDeadline(t *testing.T) {
	g := hardGraph()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	a, m, err := SolveSingleProc(ctx, g, Options{Workers: 1, MaxNodes: 1 << 60})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("deadline overrun: %v", elapsed)
	}
	if err := core.ValidateAssignment(g, a); err != nil {
		t.Fatal(err)
	}
	if core.Makespan(g, a) != m {
		t.Fatalf("reported %d != makespan %d", m, core.Makespan(g, a))
	}
}

// TestSolveCtxBackgroundMatchesPlain: a live, never-cancelled context
// (which starts the cancellation watcher) changes neither the optimum nor
// the node count of a Background solve.
func TestSolveCtxBackgroundMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	h := randomHyper(rng, 8, 4, 3, 3, 6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var st1, st2 SearchStats
	_, m1, err1 := SolveMultiProc(context.Background(), h, Options{Workers: 1, Stats: &st1})
	_, m2, err2 := SolveMultiProc(ctx, h, Options{Workers: 1, Stats: &st2})
	if err1 != nil || err2 != nil || m1 != m2 || st1.Nodes != st2.Nodes {
		t.Fatalf("plain (%d, %v, %d nodes) vs ctx (%d, %v, %d nodes)", m1, err1, st1.Nodes, m2, err2, st2.Nodes)
	}
}

func BenchmarkSolveMultiProc12Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	h := randomHyper(rng, 12, 6, 3, 3, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveMultiProc(context.Background(), h, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
