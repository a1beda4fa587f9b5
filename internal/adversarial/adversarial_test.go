package adversarial

import (
	"context"
	"math/rand"
	"testing"

	"semimatch/internal/core"
)

func TestFig1Claims(t *testing.T) {
	g := Fig1()
	a := core.BasicGreedy(g)
	if m := core.Makespan(g, a); m != 2 {
		t.Fatalf("basic-greedy = %d, want 2", m)
	}
	_, opt, err := core.ExactUnit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Fatalf("optimum = %d, want 1", opt)
	}
}

func TestChainSizes(t *testing.T) {
	for k := 1; k <= 6; k++ {
		g := Chain(k)
		if g.NLeft != (1<<k)-1 || g.NRight != 1<<k {
			t.Fatalf("k=%d: %d tasks, %d procs", k, g.NLeft, g.NRight)
		}
		for u := 0; u < g.NLeft; u++ {
			if g.Degree(u) != 2 {
				t.Fatalf("k=%d: task %d degree %d, want 2", k, u, g.Degree(u))
			}
		}
	}
}

func TestChainGreedyTrap(t *testing.T) {
	// Fig. 3's claim: basic- and sorted-greedy reach makespan k; OPT = 1.
	for k := 2; k <= 6; k++ {
		g := Chain(k)
		basic := core.BasicGreedy(g)
		if m := core.Makespan(g, basic); m != int64(k) {
			t.Fatalf("k=%d: basic-greedy = %d, want %d", k, m, k)
		}
		sorted := core.SortedGreedy(g)
		if m := core.Makespan(g, sorted); m != int64(k) {
			t.Fatalf("k=%d: sorted-greedy = %d, want %d", k, m, k)
		}
		_, opt, err := core.ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if opt != 1 {
			t.Fatalf("k=%d: optimum = %d, want 1", k, opt)
		}
	}
}

func TestChainDoubleSortedEscapes(t *testing.T) {
	// On the bare chain the in-degree tie-break rescues double-sorted
	// (that is exactly why the paper extends the example in ChainPlus).
	g := Chain(3)
	a := core.DoubleSorted(g)
	if m := core.Makespan(g, a); m != 1 {
		t.Fatalf("double-sorted on Chain(3) = %d, want 1", m)
	}
}

func TestChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	Chain(0)
}

func TestChainPlusTrapsDoubleSorted(t *testing.T) {
	g := ChainPlus()
	if g.NLeft != 12 || g.NRight != 12 {
		t.Fatalf("sizes: %d %d", g.NLeft, g.NRight)
	}
	// In-degrees of P0..P7 must all equal 3 so double-sorted ties.
	rdeg := g.RightDegrees()
	for p := 0; p < 8; p++ {
		if rdeg[p] != 3 {
			t.Fatalf("P%d in-degree %d, want 3", p, rdeg[p])
		}
	}
	a := core.DoubleSorted(g)
	if m := core.Makespan(g, a); m != 3 {
		t.Fatalf("double-sorted = %d, want 3 (the trap)", m)
	}
	_, opt, err := core.ExactUnit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Fatalf("optimum = %d, want 1", opt)
	}
}

func TestExpectedTrapTrapsExpectedGreedy(t *testing.T) {
	g := ExpectedTrap()
	if g.NLeft != 16 || g.NRight != 16 {
		t.Fatalf("sizes: %d %d", g.NLeft, g.NRight)
	}
	for u := 0; u < g.NLeft; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("task %d degree %d, want 2 (all tasks out-degree 2)", u, g.Degree(u))
		}
	}
	rdeg := g.RightDegrees()
	for p := 0; p < 8; p++ {
		if rdeg[p] != 3 {
			t.Fatalf("P%d in-degree %d, want 3", p, rdeg[p])
		}
	}
	a := core.ExpectedGreedy(g)
	if m := core.Makespan(g, a); m != 3 {
		t.Fatalf("expected-greedy = %d, want 3 (the trap)", m)
	}
	b := core.DoubleSorted(g)
	if m := core.Makespan(g, b); m != 3 {
		t.Fatalf("double-sorted = %d, want 3", m)
	}
	_, opt, err := core.ExactUnit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Fatalf("optimum = %d, want 1", opt)
	}
}

func TestExpectedGreedyEscapesChainPlus(t *testing.T) {
	// Sec. IV-B4: on the ChainPlus example the o(u) values differ (the
	// degree-3 tasks shift them), so expected-greedy avoids at least the
	// full collapse: it must beat double-sorted's makespan 3 or match the
	// optimum. We assert it is strictly better than the trap.
	g := ChainPlus()
	a := core.ExpectedGreedy(g)
	if m := core.Makespan(g, a); m >= 3 {
		t.Fatalf("expected-greedy = %d, want < 3", m)
	}
}

func TestX3CValidate(t *testing.T) {
	ok := X3C{Q: 1, Sets: [][3]int{{0, 1, 2}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []X3C{
		{Q: 0},
		{Q: 1, Sets: [][3]int{{0, 1, 5}}},
		{Q: 1, Sets: [][3]int{{0, 0, 1}}},
	}
	for i, x := range bad {
		if err := x.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestToMultiprocShape(t *testing.T) {
	x := X3C{Q: 2, Sets: [][3]int{{0, 1, 2}, {3, 4, 5}, {1, 2, 3}}}
	h, err := x.ToMultiproc()
	if err != nil {
		t.Fatal(err)
	}
	if h.NTasks != 2 || h.NProcs != 6 {
		t.Fatalf("sizes: %d %d", h.NTasks, h.NProcs)
	}
	if h.NumEdges() != 2*3 {
		t.Fatalf("|N| = %d, want 6 (every task gets every set)", h.NumEdges())
	}
	if !h.Unit() {
		t.Fatal("reduction must be unit-weighted")
	}
	if _, err := (X3C{Q: 1}).ToMultiproc(); err == nil {
		t.Fatal("empty collection accepted")
	}
}

func TestRandomX3CPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := RandomX3C(rng, 4, 5, true)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(x.Sets) != 4+5 {
		t.Fatalf("%d sets", len(x.Sets))
	}
	// A planted instance must have an exact cover: the q planted triples
	// partition X. Verify by brute force over subsets here (q=4 small).
	if !hasCoverBrute(x) {
		t.Fatal("planted instance has no cover")
	}
}

// hasCoverBrute is an independent exhaustive check used only in tests.
func hasCoverBrute(x X3C) bool {
	n := len(x.Sets)
	var rec func(i, covered int, mask uint64) bool
	rec = func(i, covered int, mask uint64) bool {
		if covered == 3*x.Q {
			return true
		}
		if i == n {
			return false
		}
		s := x.Sets[i]
		bit := uint64(1)<<s[0] | uint64(1)<<s[1] | uint64(1)<<s[2]
		if mask&bit == 0 {
			if rec(i+1, covered+3, mask|bit) {
				return true
			}
		}
		return rec(i+1, covered, mask)
	}
	return rec(0, 0, 0)
}
