package matching

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// adj is a tiny literal graph helper for tests.
type adj [][]int32

func (a adj) LeftCount() int    { return len(a) }
func (a adj) RightCount() int   { return rightCount(a) }
func (a adj) Row(u int) []int32 { return a[u] }

func rightCount(a adj) int {
	max := int32(-1)
	for _, row := range a {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return int(max + 1)
}

// fixedRight wraps adj with an explicit right count (for isolated right
// vertices).
type fixedRight struct {
	adj
	nRight int
}

func (f fixedRight) RightCount() int { return f.nRight }

// bruteMax computes maximum matching cardinality by exhaustive recursion.
// Exponential; only for graphs with ≤ ~20 left vertices.
func bruteMax(g Graph) int {
	usedR := make([]bool, g.RightCount())
	var rec func(u int) int
	rec = func(u int) int {
		if u == g.LeftCount() {
			return 0
		}
		best := rec(u + 1) // leave u unmatched
		for _, v := range g.Row(u) {
			if !usedR[v] {
				usedR[v] = true
				if r := 1 + rec(u+1); r > best {
					best = r
				}
				usedR[v] = false
			}
		}
		return best
	}
	return rec(0)
}

func randomAdj(rng *rand.Rand, nL, nR int, prob float64) fixedRight {
	a := make(adj, nL)
	for u := 0; u < nL; u++ {
		for v := 0; v < nR; v++ {
			if rng.Float64() < prob {
				a[u] = append(a[u], int32(v))
			}
		}
	}
	return fixedRight{a, nR}
}

var allAlgorithms = []struct {
	name string
	f    func(Graph) []int32
}{
	{"HopcroftKarp", HopcroftKarp},
	{"Kuhn", Kuhn},
	{"PushRelabel", PushRelabel},
}

func TestPerfectMatchingSquare(t *testing.T) {
	// Complete bipartite K_{4,4} has a perfect matching.
	g := randomAdj(rand.New(rand.NewSource(1)), 4, 4, 1.1)
	for _, alg := range allAlgorithms {
		m := alg.f(g)
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if Cardinality(m) != 4 {
			t.Fatalf("%s: cardinality %d, want 4", alg.name, Cardinality(m))
		}
	}
}

func TestPathGraph(t *testing.T) {
	// L0-R0, L0-R1, L1-R1: maximum matching 2 requires augmenting.
	g := fixedRight{adj{{0, 1}, {1}}, 2}
	for _, alg := range allAlgorithms {
		m := alg.f(g)
		if Cardinality(m) != 2 {
			t.Fatalf("%s: cardinality %d, want 2 (augmentation failed)", alg.name, Cardinality(m))
		}
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
	}
}

func TestEmptyAndIsolated(t *testing.T) {
	g := fixedRight{adj{{}, {0}, {}}, 2}
	for _, alg := range allAlgorithms {
		m := alg.f(g)
		if Cardinality(m) != 1 {
			t.Fatalf("%s: cardinality %d, want 1", alg.name, Cardinality(m))
		}
		if m[0] != Unmatched || m[2] != Unmatched {
			t.Fatalf("%s: isolated vertices must stay unmatched: %v", alg.name, m)
		}
	}
}

func TestZeroVertices(t *testing.T) {
	g := fixedRight{adj{}, 0}
	for _, alg := range allAlgorithms {
		if m := alg.f(g); len(m) != 0 {
			t.Fatalf("%s: expected empty matching", alg.name)
		}
	}
}

func TestAllAlgorithmsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nL := 1 + rng.Intn(9)
		nR := 1 + rng.Intn(9)
		g := randomAdj(rng, nL, nR, rng.Float64())
		want := bruteMax(g)
		for _, alg := range allAlgorithms {
			m := alg.f(g)
			if err := Verify(g, m); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.name, err)
			}
			if got := Cardinality(m); got != want {
				t.Fatalf("trial %d %s: cardinality %d, want %d (graph %v)", trial, alg.name, got, want, g.adj)
			}
		}
	}
}

func TestAlgorithmsAgreeOnLargerGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomAdj(rng, 200+rng.Intn(200), 100+rng.Intn(100), 0.02+rng.Float64()*0.05)
		ref := Cardinality(HopcroftKarp(g))
		for _, alg := range allAlgorithms[1:] {
			if got := Cardinality(alg.f(g)); got != ref {
				t.Fatalf("trial %d: %s=%d, HopcroftKarp=%d", trial, alg.name, got, ref)
			}
		}
	}
}

func TestKarpSipserMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAdj(rng, 1+rng.Intn(40), 1+rng.Intn(40), rng.Float64()*0.3)
		m := KarpSipser(g)
		if Verify(g, m) != nil {
			return false
		}
		return VerifyMaximal(g, m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKarpSipserChain(t *testing.T) {
	// A path: KS degree-1 rule should find the perfect matching where pure
	// greedy from the middle could fail.
	g := fixedRight{adj{{0}, {0, 1}, {1, 2}, {2, 3}}, 4}
	m := KarpSipser(g)
	if Cardinality(m) != 4 {
		t.Fatalf("KarpSipser on chain: %d, want 4", Cardinality(m))
	}
}

func TestVerifyDetectsBadMatchings(t *testing.T) {
	g := fixedRight{adj{{0, 1}, {0}}, 2}
	if err := Verify(g, []int32{0}); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if err := Verify(g, []int32{0, 0}); err == nil {
		t.Fatal("double-used right vertex not detected")
	}
	if err := Verify(g, []int32{5, Unmatched}); err == nil {
		t.Fatal("out-of-range not detected")
	}
	if err := Verify(g, []int32{1, 1}); err == nil {
		t.Fatal("double use not detected")
	}
	if err := Verify(g, []int32{Unmatched, 1}); err == nil {
		t.Fatal("non-edge not detected")
	}
}

// --- Capacitated matching ---

// bruteMaxCap: maximum b-matching cardinality with right capacity c.
func bruteMaxCap(g Graph, c int) int {
	load := make([]int, g.RightCount())
	var rec func(u int) int
	rec = func(u int) int {
		if u == g.LeftCount() {
			return 0
		}
		best := rec(u + 1)
		for _, v := range g.Row(u) {
			if load[v] < c {
				load[v]++
				if r := 1 + rec(u+1); r > best {
					best = r
				}
				load[v]--
			}
		}
		return best
	}
	return rec(0)
}

// VerifyCap checks a capacitated matching.
func verifyCap(t *testing.T, g Graph, m []int32, c int) {
	t.Helper()
	load := make([]int, g.RightCount())
	for u, v := range m {
		if v == Unmatched {
			continue
		}
		found := false
		for _, w := range g.Row(u) {
			if w == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("pair (%d,%d) not an edge", u, v)
		}
		load[v]++
	}
	for v, l := range load {
		if l > c {
			t.Fatalf("right vertex %d has load %d > cap %d", v, l, c)
		}
	}
}

// capMatch runs HopcroftKarpCap to the end.
func capMatch(tb testing.TB, g Graph, c int) []int32 {
	tb.Helper()
	m, err := HopcroftKarpCap(context.Background(), g, c)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestCapStopsOnDoneContext: a context that has ended stops the matcher
// before its next phase, with the context's error and no matching.
func TestCapStopsOnDoneContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := benchGraph(2000, 125, 5, 1)
	if m, err := HopcroftKarpCap(ctx, g, 16); m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled matcher: %d-entry matching, err %v; want none and context.Canceled", len(m), err)
	}
}

func TestCapEqualsReplication(t *testing.T) {
	// cap=1 must agree with a plain maximum matcher.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g := randomAdj(rng, 1+rng.Intn(12), 1+rng.Intn(8), rng.Float64()*0.6)
		m1 := Kuhn(g)
		mc := capMatch(t, g, 1)
		verifyCap(t, g, mc, 1)
		if Cardinality(m1) != Cardinality(mc) {
			t.Fatalf("trial %d: cap-1 %d != plain %d", trial, Cardinality(mc), Cardinality(m1))
		}
	}
}

func TestCapAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nL := 1 + rng.Intn(8)
		nR := 1 + rng.Intn(5)
		c := 1 + rng.Intn(3)
		g := randomAdj(rng, nL, nR, rng.Float64())
		m := capMatch(t, g, c)
		verifyCap(t, g, m, c)
		want := bruteMaxCap(g, c)
		if got := Cardinality(m); got != want {
			t.Fatalf("trial %d (cap=%d): got %d, want %d; graph %v", trial, c, got, want, g.adj)
		}
	}
}

func TestCapSaturatesAllTasks(t *testing.T) {
	// n tasks all eligible on a single processor: cap n matches all, cap
	// n-1 matches n-1.
	const n = 9
	a := make(adj, n)
	for u := range a {
		a[u] = []int32{0}
	}
	g := fixedRight{a, 1}
	if got := Cardinality(capMatch(t, g, n)); got != n {
		t.Fatalf("cap=n: %d, want %d", got, n)
	}
	if got := Cardinality(capMatch(t, g, n-1)); got != n-1 {
		t.Fatalf("cap=n-1: %d, want %d", got, n-1)
	}
}

func TestCapPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HopcroftKarpCap(context.Background(), fixedRight{adj{{0}}, 1}, 0)
}

func TestWrap(t *testing.T) {
	// CSR for: 0-{0,1}, 1-{0}.
	g := Wrap(2, 2, []int32{0, 2, 3}, []int32{0, 1, 0})
	if g.LeftCount() != 2 || g.RightCount() != 2 {
		t.Fatal("Wrap counts wrong")
	}
	if got := g.Row(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Row(0) = %v", got)
	}
	m := HopcroftKarp(g)
	if Cardinality(m) != 2 {
		t.Fatalf("cardinality %d", Cardinality(m))
	}
}

func TestPropertyCardinalityNeverExceedsSides(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL, nR := 1+rng.Intn(25), 1+rng.Intn(25)
		g := randomAdj(rng, nL, nR, rng.Float64()*0.5)
		c := Cardinality(HopcroftKarp(g))
		return c <= nL && c <= nR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCapMonotone(t *testing.T) {
	// Cardinality is non-decreasing in the capacity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAdj(rng, 1+rng.Intn(15), 1+rng.Intn(6), rng.Float64()*0.6)
		prev := 0
		for c := 1; c <= 4; c++ {
			card := Cardinality(capMatch(t, g, c))
			if card < prev {
				return false
			}
			prev = card
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func benchGraph(nL, nR, deg int, seed int64) Graph {
	rng := rand.New(rand.NewSource(seed))
	a := make(adj, nL)
	for u := 0; u < nL; u++ {
		seen := map[int32]bool{}
		for len(seen) < deg {
			v := int32(rng.Intn(nR))
			if !seen[v] {
				seen[v] = true
				a[u] = append(a[u], v)
			}
		}
	}
	return fixedRight{a, nR}
}

// benchSizes is the shared size grid of the matching-kernel
// micro-benchmarks. Sub-benchmark names are benchstat-friendly
// (key=value segments, fixed seed 1), so two runs diff cleanly with
//
//	go test -run '^$' -bench 'KarpSipser|HopcroftKarp|PushRelabel' \
//	    -count 10 ./internal/matching/ | benchstat old.txt new.txt
var benchSizes = []struct {
	n, deg int
}{
	{5000, 5},
	{20000, 5},
	{20000, 10},
}

func benchKernel(b *testing.B, kernel func(Graph) []int32) {
	b.Helper()
	for _, sz := range benchSizes {
		g := benchGraph(sz.n, sz.n, sz.deg, 1)
		b.Run(fmt.Sprintf("n=%d/deg=%d", sz.n, sz.deg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(g)
			}
		})
	}
}

func BenchmarkHopcroftKarp(b *testing.B) { benchKernel(b, HopcroftKarp) }

func BenchmarkPushRelabel(b *testing.B) { benchKernel(b, PushRelabel) }

func BenchmarkKuhn(b *testing.B) { benchKernel(b, Kuhn) }

func BenchmarkKarpSipser(b *testing.B) { benchKernel(b, KarpSipser) }

func BenchmarkHopcroftKarpCap16(b *testing.B) {
	g := benchGraph(20000, 1250, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capMatch(b, g, 16)
	}
}
