package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semimatch/internal/core"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
)

// testHyper is a small MULTIPROC instance with a known optimal makespan
// of 5: task 0 on {p0,p1} for 3, task 1 on p2 for 3, task 2 on p1 for 2.
func testHyper(t testing.TB) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(3, 3)
	b.AddEdge(0, []int{0, 1}, 3)
	b.AddEdge(0, []int{0}, 8)
	b.AddEdge(1, []int{2}, 3)
	b.AddEdge(2, []int{1}, 2)
	b.AddEdge(2, []int{0, 2}, 5)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// isomorphTestHyper is testHyper with configurations inserted in a
// different order — same canonical form, different hyperedge numbering.
func isomorphTestHyper(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(3, 3)
	b.AddEdge(0, []int{0}, 8)
	b.AddEdge(0, []int{1, 0}, 3)
	b.AddEdge(1, []int{2}, 3)
	b.AddEdge(2, []int{2, 0}, 5)
	b.AddEdge(2, []int{1}, 2)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestServiceSolveAndCacheHit(t *testing.T) {
	s := New(Options{})
	h := testHyper(t)
	r1, err := s.Solve(context.Background(), h, "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first solve reported cached")
	}
	if r1.Kind != "hypergraph" || r1.Algorithm != "EVG" || r1.Fingerprint == "" {
		t.Fatalf("bad result metadata: %+v", r1)
	}
	if err := core.ValidateHyperAssignment(h, core.HyperAssignment(r1.Assignment)); err != nil {
		t.Fatalf("returned assignment invalid on the original instance: %v", err)
	}
	if m := core.HyperMakespan(h, core.HyperAssignment(r1.Assignment)); m != r1.Makespan {
		t.Fatalf("reported makespan %d, assignment yields %d", r1.Makespan, m)
	}

	r2, err := s.Solve(context.Background(), h, "evg") // alias, same key
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if r2.Makespan != r1.Makespan {
		t.Fatalf("cache served a different makespan: %d vs %d", r2.Makespan, r1.Makespan)
	}
	st := s.Stats()
	if st.Solves != 1 || st.CacheHits != 1 {
		t.Fatalf("solves=%d hits=%d, want 1/1", st.Solves, st.CacheHits)
	}
}

// TestServiceIsomorphHit: an isomorphic instance (different configuration
// order) hits the cache, and the served assignment is valid in the *new*
// requester's own hyperedge numbering.
func TestServiceIsomorphHit(t *testing.T) {
	s := New(Options{})
	h1, h2 := testHyper(t), isomorphTestHyper(t)
	r1, err := s.Solve(context.Background(), h1, "SGH")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Solve(context.Background(), h2, "SGH")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("isomorphic instance missed the cache")
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatal("isomorphic instances fingerprint differently")
	}
	a2 := core.HyperAssignment(r2.Assignment)
	if err := core.ValidateHyperAssignment(h2, a2); err != nil {
		t.Fatalf("cache-served assignment invalid for the isomorph: %v", err)
	}
	if m := core.HyperMakespan(h2, a2); m != r1.Makespan {
		t.Fatalf("isomorph makespan %d, want %d", m, r1.Makespan)
	}
}

func TestServiceAutoPolicies(t *testing.T) {
	s := New(Options{})
	h := testHyper(t)
	r, err := s.Solve(context.Background(), h, "")
	if err != nil {
		t.Fatal(err)
	}
	// The instance is tiny, so the auto policy's exact stage proves
	// optimality.
	if !r.Optimal {
		t.Fatalf("auto policy did not prove optimality on a 3-task instance: %+v", r)
	}
	if r.Makespan != 5 {
		t.Fatalf("optimal makespan %d, want 5", r.Makespan)
	}

	// Bipartite auto runs the same policy: the heuristic race, then the
	// polynomial exact proof on a unit instance.
	g, err := gen.Bipartite(gen.FewgManyg, 30, 8, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Solve(context.Background(), g, "")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Kind != "bipartite" || !strings.HasPrefix(rb.Algorithm, "auto:") || !rb.Optimal {
		t.Fatalf("bipartite auto: %+v", rb)
	}
	if err := core.ValidateAssignment(g, core.Assignment(rb.Assignment)); err != nil {
		t.Fatal(err)
	}
}

func TestServiceUnknownAlgorithm(t *testing.T) {
	s := New(Options{})
	_, err := s.Solve(context.Background(), testHyper(t), "no-such-solver")
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	_, err = s.Solve(context.Background(), 42, "")
	if !errors.Is(err, ErrBadInstance) {
		t.Fatalf("err = %v, want ErrBadInstance", err)
	}
}

// TestServiceSingleFlight: N concurrent requests for the same instance
// trigger exactly one solve; the rest coalesce onto it.
func TestServiceSingleFlight(t *testing.T) {
	s := New(Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.solveFn = func(ctx context.Context, req *request) (*Result, error) {
		close(started)
		<-release
		return &Result{Kind: req.kind, Fingerprint: req.fp, Algorithm: req.alg, Makespan: 42}, nil
	}
	h := testHyper(t)

	const followers = 7
	var wg sync.WaitGroup
	results := make([]*Result, followers+1)
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], errs[0] = s.Solve(context.Background(), h, "SGH") }()
	<-started // leader is inside the solve
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i], errs[i] = s.Solve(context.Background(), h, "SGH") }(i)
	}
	// Wait until every follower is parked on the flight, then release.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		if results[i].Makespan != 42 {
			t.Fatalf("request %d got makespan %d", i, results[i].Makespan)
		}
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Fatalf("solves = %d, want 1 (single flight)", st.Solves)
	}
	if st.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, followers)
	}
}

// TestServiceFollowerSurvivesLeaderCancel: when the single-flight leader
// dies with its own context error, a coalesced follower whose context is
// still alive retries (and becomes the new leader) instead of inheriting
// the failure.
func TestServiceFollowerSurvivesLeaderCancel(t *testing.T) {
	s := New(Options{})
	var calls atomic.Int32
	leaderIn := make(chan struct{})
	s.solveFn = func(ctx context.Context, req *request) (*Result, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done()
			return nil, fmt.Errorf("service: leader died: %w", ctx.Err())
		}
		return &Result{Kind: req.kind, Makespan: 7}, nil
	}
	h := testHyper(t)

	lctx, lcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var leaderErr error
	wg.Add(1)
	go func() { defer wg.Done(); _, leaderErr = s.Solve(lctx, h, "SGH") }()
	<-leaderIn

	var fres *Result
	var ferr error
	wg.Add(1)
	go func() { defer wg.Done(); fres, ferr = s.Solve(context.Background(), h, "SGH") }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	lcancel()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", leaderErr)
	}
	if ferr != nil {
		t.Fatalf("follower inherited the leader's failure: %v", ferr)
	}
	if fres.Makespan != 7 {
		t.Fatalf("follower result: %+v", fres)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("solve calls = %d, want 2 (leader + follower retry)", got)
	}
}

// TestServiceOverload: with a single admission slot occupied, a request
// for a different instance is rejected with ErrOverloaded.
func TestServiceOverload(t *testing.T) {
	s := New(Options{QueueDepth: 1, Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	s.solveFn = func(ctx context.Context, req *request) (*Result, error) {
		close(started)
		<-release
		return &Result{Makespan: 1}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Solve(context.Background(), testHyper(t), "SGH") }()
	<-started

	g, err := gen.Bipartite(gen.HiLo, 10, 4, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), g, "basic")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Overloaded != 1 || st.InFlight != 1 {
		close(release)
		wg.Wait()
		t.Fatalf("overloaded=%d inFlight=%d, want 1/1", st.Overloaded, st.InFlight)
	}
	close(release)
	wg.Wait()
}

// TestServicePanicIsolated: a panicking solver becomes that request's
// error, the flight is torn down (no stranded followers), and the same
// key solves fine afterwards.
func TestServicePanicIsolated(t *testing.T) {
	s := New(Options{})
	first := true
	s.solveFn = func(ctx context.Context, req *request) (*Result, error) {
		if first {
			first = false
			panic("solver exploded")
		}
		return &Result{Kind: req.kind, Makespan: 4}, nil
	}
	h := testHyper(t)
	_, err := s.Solve(context.Background(), h, "SGH")
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want a panic-derived error", err)
	}
	r, err := s.Solve(context.Background(), h, "SGH")
	if err != nil || r.Makespan != 4 {
		t.Fatalf("key unusable after a panic: %v, %+v", err, r)
	}
	if st := s.Stats(); st.SolveErrors != 1 || st.Solves != 2 || st.InFlight != 0 {
		t.Fatalf("stats after panic: %+v", st)
	}
}

// TestServiceTruncatedNotCached: deadline-truncated results are returned
// but never stored.
func TestServiceTruncatedNotCached(t *testing.T) {
	s := New(Options{})
	solves := 0
	s.solveFn = func(ctx context.Context, req *request) (*Result, error) {
		solves++
		return &Result{Kind: req.kind, Makespan: 9, Truncated: true}, nil
	}
	h := testHyper(t)
	for i := 0; i < 2; i++ {
		r, err := s.Solve(context.Background(), h, "SGH")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Truncated || r.Cached {
			t.Fatalf("solve %d: %+v", i, r)
		}
	}
	if solves != 2 {
		t.Fatalf("solves = %d, want 2 (truncated results must not be cached)", solves)
	}
	if st := s.Stats(); st.Truncated != 2 || st.CacheEntries != 0 {
		t.Fatalf("truncated=%d entries=%d, want 2/0", st.Truncated, st.CacheEntries)
	}
}

// TestServiceDeadlineTruncation drives the real branch-and-bound under a
// deadline it cannot meet: the service must return the incumbent flagged
// Truncated instead of failing.
func TestServiceDeadlineTruncation(t *testing.T) {
	s := New(Options{})
	h, err := gen.Hypergraph(gen.HyperParams{
		Gen: gen.FewgManyg, N: 60, P: 16, Dv: 4, Dh: 3, G: 4,
		Weights: gen.Random, MaxW: 100,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r, err := s.Solve(ctx, h, "bnb")
	if err != nil {
		t.Fatalf("deadline-bounded bnb failed instead of degrading: %v", err)
	}
	if !r.Truncated {
		t.Fatal("60-task branch and bound finished in 50ms?")
	}
	if err := core.ValidateHyperAssignment(h, core.HyperAssignment(r.Assignment)); err != nil {
		t.Fatalf("incumbent invalid: %v", err)
	}
	// The truncated incumbent must not be served to a fresh request.
	if st := s.Stats(); st.CacheEntries != 0 {
		t.Fatalf("truncated result was cached: %+v", st)
	}
}

// TestServiceConcurrentStress exercises the full path — canonicalization,
// cache, single-flight, admission — from many goroutines over a few
// instances. Run with -race in CI.
func TestServiceConcurrentStress(t *testing.T) {
	s := New(Options{CacheEntries: 8, CacheShards: 2, QueueDepth: 32})
	instances := []*hypergraph.Hypergraph{testHyper(t), isomorphTestHyper(t)}
	for seed := int64(0); seed < 3; seed++ {
		h, err := gen.Hypergraph(gen.HyperParams{
			Gen: gen.FewgManyg, N: 12, P: 4, Dv: 2, Dh: 2, G: 2,
			Weights: gen.Unit,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, h)
	}
	algs := []string{"", "SGH", "EVG", "vgh"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				h := instances[(w+i)%len(instances)]
				alg := algs[(w*7+i)%len(algs)]
				r, err := s.Solve(context.Background(), h, alg)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if err := core.ValidateHyperAssignment(h, core.HyperAssignment(r.Assignment)); err != nil {
					t.Errorf("worker %d: invalid assignment: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != 8*30 {
		t.Fatalf("requests = %d, want %d", st.Requests, 8*30)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight leak: %d", st.InFlight)
	}
}

func TestBudgetClass(t *testing.T) {
	if got := budgetClass(context.Background(), 0); got != "inf" {
		t.Fatalf("no deadline: %q", got)
	}
	cases := []struct {
		d    time.Duration
		want string
	}{
		{50 * time.Millisecond, "le100ms"},
		{400 * time.Millisecond, "le500ms"},
		{1500 * time.Millisecond, "le2s"},
		{9 * time.Second, "le10s"},
		{time.Minute, "gt10s"},
	}
	for _, c := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), c.d)
		if got := budgetClass(ctx, 0); got != c.want {
			t.Errorf("budgetClass(%v) = %q, want %q", c.d, got, c.want)
		}
		// A deadline of the context's own wins over the default.
		if got := budgetClass(ctx, time.Hour); got != c.want {
			t.Errorf("budgetClass(%v, 1h default) = %q, want %q", c.d, got, c.want)
		}
		cancel()
	}
}

// TestBudgetClassDefaultDeadline pins the budget class of a request
// without a deadline to the one a context with the default deadline
// gets, boundaries included: deriving it from DefaultDeadline instead of
// from a timeout context must not change a cache key.
func TestBudgetClassDefaultDeadline(t *testing.T) {
	for _, def := range []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond,
		500 * time.Millisecond, 1500 * time.Millisecond, 2 * time.Second,
		9 * time.Second, 10 * time.Second, time.Minute,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), def)
		want := budgetClass(ctx, 0)
		cancel()
		if got := budgetClass(context.Background(), def); got != want {
			t.Errorf("default %v: class %q, a %v timeout context's %q", def, got, def, want)
		}
	}
}

// TestDefaultDeadlineKeepsKey: a request without a deadline, answered
// under DefaultDeadline, stores its result under the key of a request
// whose context carries that deadline, so the second one is a hit.
func TestDefaultDeadlineKeepsKey(t *testing.T) {
	s := New(Options{DefaultDeadline: 2 * time.Second})
	h := testHyper(t)
	r1, err := s.Solve(context.Background(), h, "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first solve reported cached")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r2, err := s.Solve(ctx, h, "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("a request under the default deadline's own value missed the cache")
	}
}

// TestCacheHitAllocations pins what a memory-tier hit allocates, under
// DefaultDeadline and a context without a deadline: canonicalizing the
// request and delivering the result, but no timeout context or timer.
func TestCacheHitAllocations(t *testing.T) {
	const maxAllocs = 12
	s := New(Options{DefaultDeadline: 2 * time.Second})
	h := testHyper(t)
	ctx := context.Background()
	if _, err := s.Solve(ctx, h, "EVG"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if r, err := s.Solve(ctx, h, "EVG"); err != nil || !r.Cached {
			t.Fatalf("hit: cached=%v err=%v", r != nil && r.Cached, err)
		}
	})
	t.Logf("a cache hit allocates %.0f times", allocs)
	if allocs > maxAllocs {
		t.Errorf("a cache hit allocates %.0f times, budget %d", allocs, maxAllocs)
	}
}
