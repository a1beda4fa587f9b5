package batch

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
	"semimatch/internal/solve"
)

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

// hardHyper is a number-partitioning instance whose branch-and-bound
// search runs effectively forever without a node or time budget.
func hardHyper(seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
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

func mixedBatch(n int) []*hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(99))
	out := make([]*hypergraph.Hypergraph, n)
	for i := range out {
		// Alternate small (exact-eligible) and medium instances.
		if i%2 == 0 {
			out[i] = randomHyper(rng, 2+rng.Intn(14), 2+rng.Intn(4), 3, 3, 9)
		} else {
			out[i] = randomHyper(rng, 20+rng.Intn(40), 4+rng.Intn(8), 4, 4, 20)
		}
	}
	return out
}

// hyperProblems wraps hypergraph instances as Problems; a nil instance
// becomes the empty Problem.
func hyperProblems(instances []*hypergraph.Hypergraph) []solve.Problem {
	problems := make([]solve.Problem, len(instances))
	for i, h := range instances {
		if h != nil {
			problems[i] = solve.Hyper(h)
		}
	}
	return problems
}

func TestBatchResultsIndependentOfWorkerCount(t *testing.T) {
	instances := mixedBatch(100)
	r1, err1 := Solve(context.Background(), hyperProblems(instances), solve.Options{Workers: 1, Refine: true})
	rN, errN := Solve(context.Background(), hyperProblems(instances), solve.Options{Workers: runtime.GOMAXPROCS(0), Refine: true})
	if err1 != nil || errN != nil {
		t.Fatal(err1, errN)
	}
	if len(r1) != 100 || len(rN) != 100 {
		t.Fatalf("lengths %d, %d", len(r1), len(rN))
	}
	for i := range r1 {
		if r1[i].Err != nil || rN[i].Err != nil {
			t.Fatalf("instance %d: unexpected errors %v, %v", i, r1[i].Err, rN[i].Err)
		}
		a, b := r1[i].Report, rN[i].Report
		// The claim holds only while no exact stage stops at its node
		// budget; a budget stop spends exactly the budget.
		if a.Stats.Nodes >= solve.DefaultExactNodes || b.Stats.Nodes >= solve.DefaultExactNodes {
			t.Fatalf("instance %d: exact stage stopped at its node budget (%d, %d nodes)", i, a.Stats.Nodes, b.Stats.Nodes)
		}
		if a.Makespan != b.Makespan || a.Solver != b.Solver || a.Status != b.Status {
			t.Fatalf("instance %d: Workers=1 %+v vs Workers=N %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Assignment, b.Assignment) {
			t.Fatalf("instance %d: assignments differ across worker counts", i)
		}
		if err := core.ValidateHyperAssignment(instances[i], a.Assignment); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if core.HyperMakespan(instances[i], a.Assignment) != a.Makespan {
			t.Fatalf("instance %d: reported makespan mismatch", i)
		}
	}
}

func TestBatchCancelMidBatchStopsPromptly(t *testing.T) {
	// Every instance pins a worker in an effectively unbounded
	// branch-and-bound; only cancellation can end the batch early. The
	// pool runs GOMAXPROCS one-worker solves at once, so twice as many
	// instances leave some still queued at cancel time on any machine.
	instances := make([]*hypergraph.Hypergraph, max(32, 2*runtime.GOMAXPROCS(0)))
	for i := range instances {
		instances[i] = hardHyper(int64(i))
	}
	o := solve.Options{ExactTaskLimit: 64, NodeBudget: 1 << 60}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, err := Solve(ctx, hyperProblems(instances), o)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if len(results) != len(instances) {
		t.Fatalf("got %d results", len(results))
	}
	valid, failed := 0, 0
	for i, res := range results {
		switch {
		case res.Err != nil:
			failed++
		default:
			// An in-flight instance keeps its best schedule so far.
			if err := core.ValidateHyperAssignment(instances[i], res.Report.Assignment); err != nil {
				t.Fatalf("instance %d: %v", i, err)
			}
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("expected at least the in-flight instances to return schedules")
	}
	if failed == 0 {
		t.Fatal("expected unstarted instances to carry errors after early cancel")
	}
}

func TestBatchErrorIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	good1 := randomHyper(rng, 12, 4, 3, 3, 9)
	good2 := randomHyper(rng, 30, 6, 4, 3, 9)
	// A structurally broken instance: NTasks claims 4 tasks but there are
	// no edges, so the heuristics panic indexing TaskPtr. The batch must
	// contain the panic to this instance.
	broken := &hypergraph.Hypergraph{NTasks: 4, NProcs: 2}
	instances := []*hypergraph.Hypergraph{good1, nil, good2, broken}
	results, err := Solve(context.Background(), hyperProblems(instances), solve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Err == nil {
		t.Fatal("nil instance must error")
	}
	if results[3].Err == nil {
		t.Fatal("broken instance must error (recovered panic)")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("sibling %d poisoned: %v", i, results[i].Err)
		}
		if err := core.ValidateHyperAssignment(instances[i], results[i].Report.Assignment); err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
	}
}

func TestBatchUnknownAlgorithmFailsFast(t *testing.T) {
	instances := mixedBatch(3)
	for _, o := range []solve.Options{{Portfolio: []string{"nope"}}, {Algorithm: "nope"}} {
		results, err := Solve(context.Background(), hyperProblems(instances), o)
		if err == nil || results != nil {
			t.Fatalf("%+v: want upfront config error, got results=%v err=%v", o, results, err)
		}
	}
}

func TestBatchExactStageProvesOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	instances := make([]*hypergraph.Hypergraph, 20)
	for i := range instances {
		instances[i] = randomHyper(rng, 2+rng.Intn(10), 2+rng.Intn(3), 3, 3, 6)
	}
	withExact, err := Solve(context.Background(), hyperProblems(instances), solve.Options{Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	heuristicOnly, err := Solve(context.Background(), hyperProblems(instances), solve.Options{Refine: true, ExactTaskLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	optimal := 0
	for i := range withExact {
		if withExact[i].Err != nil || heuristicOnly[i].Err != nil {
			t.Fatalf("instance %d: %v / %v", i, withExact[i].Err, heuristicOnly[i].Err)
		}
		ex, heur := withExact[i].Report, heuristicOnly[i].Report
		if ex.Optimal() {
			optimal++
			if heur.Makespan < ex.Makespan {
				t.Fatalf("instance %d: heuristic %d beat proven optimum %d",
					i, heur.Makespan, ex.Makespan)
			}
			// Without the exact stage, optimality can only come from a
			// certificate bound that meets the heuristic's makespan.
			if heur.Optimal() && (heur.Makespan != ex.Makespan || heur.LowerBound != heur.Makespan) {
				t.Fatalf("instance %d: heuristic-only run claims optimality at %d (bound %d, optimum %d)",
					i, heur.Makespan, heur.LowerBound, ex.Makespan)
			}
		}
	}
	if optimal == 0 {
		t.Fatal("tiny instances should be solved to proven optimality")
	}
}

func TestBatchInstanceTimeoutFallsBackToHeuristic(t *testing.T) {
	// One hard instance with an unbounded node budget: without the
	// per-instance deadline this would never finish.
	instances := []*hypergraph.Hypergraph{hardHyper(7)}
	o := solve.Options{ExactTaskLimit: 64, NodeBudget: 1 << 60, Deadline: 20 * time.Millisecond}
	start := time.Now()
	results, err := Solve(context.Background(), hyperProblems(instances), o)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout not honored: %v", elapsed)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	res := results[0].Report
	if res.Optimal() {
		t.Fatal("a timed-out search must not claim optimality")
	}
	if err := core.ValidateHyperAssignment(instances[0], res.Assignment); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a seeded SINGLEPROC instance (unit or weighted).
func randomGraph(rng *rand.Rand, nTasks, nProcs, maxDeg int, maxW int64) *bipartite.Graph {
	b := bipartite.NewBuilder(nTasks, nProcs)
	for t := 0; t < nTasks; t++ {
		d := 1 + rng.Intn(maxDeg)
		perm := rng.Perm(nProcs)
		for j := 0; j < d && j < nProcs; j++ {
			w := int64(1)
			if maxW > 1 {
				w = 1 + rng.Int63n(maxW)
			}
			b.AddWeightedEdge(t, perm[j], w)
		}
	}
	return b.MustBuild()
}

// TestBatchSingleProcProblems: SINGLEPROC batching through the
// class-generic Solve. Unit instances get the polynomial ExactUnit
// proof, small weighted ones the branch-and-bound attempt.
func TestBatchSingleProcProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var problems []solve.Problem
	for i := 0; i < 24; i++ {
		if i%2 == 0 {
			problems = append(problems, solve.Bipartite(randomGraph(rng, 10+rng.Intn(30), 2+rng.Intn(6), 3, 1)))
		} else {
			problems = append(problems, solve.Bipartite(randomGraph(rng, 6+rng.Intn(8), 2+rng.Intn(3), 3, 9)))
		}
	}
	outs, err := Solve(context.Background(), problems, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	optimal := 0
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("problem %d: %v", i, out.Err)
		}
		rep := out.Report
		g := problems[i].Graph()
		if err := core.ValidateAssignment(g, core.Assignment(rep.Assignment)); err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if m := core.Makespan(g, core.Assignment(rep.Assignment)); m != rep.Makespan {
			t.Fatalf("problem %d: reported makespan mismatch", i)
		}
		if rep.Optimal() {
			optimal++
			// Cross-check a proven optimum against the sequential solver.
			if _, want, err := exact.SolveSingleProc(context.Background(), g, exact.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			} else if rep.Makespan != want {
				t.Fatalf("problem %d: claimed optimum %d, true optimum %d", i, rep.Makespan, want)
			}
		}
	}
	if optimal < len(outs)/2 {
		t.Fatalf("only %d/%d SINGLEPROC problems proven optimal", optimal, len(outs))
	}
}

// TestBatchMixedClasses: both encodings in one batch, solved in one call.
func TestBatchMixedClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	problems := []solve.Problem{
		solve.Hyper(randomHyper(rng, 8, 3, 3, 2, 7)),
		solve.Bipartite(randomGraph(rng, 12, 4, 3, 1)),
		{}, // empty problem: isolated per-problem error
		solve.Bipartite(randomGraph(rng, 8, 3, 2, 9)),
		solve.Hyper(randomHyper(rng, 30, 6, 3, 3, 12)),
	}
	outs, err := Solve(context.Background(), problems, solve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if outs[2].Err == nil {
		t.Fatal("empty problem must carry an error")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if outs[i].Err != nil {
			t.Fatalf("sibling %d poisoned: %v", i, outs[i].Err)
		}
		if outs[i].Report.Class != problems[i].Class() {
			t.Fatalf("problem %d: class mismatch", i)
		}
	}
}

func TestForEachVisitsAllOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 64} {
		var mu sync.Mutex
		seen := map[int]int{}
		err := ForEach(context.Background(), workers, 50, func(ctx context.Context, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 50 {
			t.Fatalf("workers=%d: visited %d indices", workers, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := ForEach(context.Background(), 2, 1000, func(ctx context.Context, i int) error {
		if calls.Add(1) == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("error did not stop dispatch (%d calls)", n)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(ctx context.Context, i int) error {
		t.Fatal("must not be called")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
