package online

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semimatch/internal/adversarial"
	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/gen"
)

func TestAssignBasics(t *testing.T) {
	s := New(3)
	p, err := s.Assign([]int32{0, 1, 2}, 5)
	if err != nil || p != 0 {
		t.Fatalf("p=%d err=%v", p, err)
	}
	p, err = s.Assign([]int32{0, 1}, 2)
	if err != nil || p != 1 {
		t.Fatalf("p=%d err=%v (least-loaded is P1)", p, err)
	}
	if s.Makespan() != 5 || s.Placed() != 2 {
		t.Fatalf("makespan=%d placed=%d", s.Makespan(), s.Placed())
	}
}

func TestAssignErrors(t *testing.T) {
	s := New(2)
	if _, err := s.Assign(nil, 1); err == nil {
		t.Fatal("empty eligibility accepted")
	}
	if _, err := s.Assign([]int32{5}, 1); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
	if _, err := s.Assign([]int32{0}, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestReplayEqualsBasicGreedyOnUnit(t *testing.T) {
	// In index order with unit weights, online greedy IS basic-greedy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.Bipartite(gen.FewgManyg, 1+rng.Intn(60), 4+rng.Intn(20), 1+rng.Intn(3), 1+rng.Intn(4), seed)
		if err != nil {
			return false
		}
		a1, m1, err := Replay(g, nil)
		if err != nil {
			return false
		}
		a2 := core.BasicGreedy(g)
		if m1 != core.Makespan(g, a2) {
			return false
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayCustomOrder(t *testing.T) {
	// Fig. 1: arrival order decides. T1 (single-choice) first → optimal.
	g := adversarial.Fig1()
	_, m, err := Replay(g, []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 {
		t.Fatalf("good order makespan = %d, want 1", m)
	}
	_, m, err = Replay(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("adversarial order makespan = %d, want 2", m)
	}
}

func TestChainRealizesLogPLowerBound(t *testing.T) {
	// On Chain(k) the online greedy is exactly k-competitive: the
	// adversary forces makespan k while OPT = 1, and k = log2(p).
	for k := 2; k <= 7; k++ {
		g := adversarial.Chain(k)
		r, err := CompetitiveRatio(g)
		if err != nil {
			t.Fatal(err)
		}
		if r != float64(k) {
			t.Fatalf("k=%d: competitive ratio %v, want %d", k, r, k)
		}
	}
}

func TestRandomInstancesNearOne(t *testing.T) {
	// On dense random instances online greedy stays within 2x of OPT
	// (empirically much closer; the bound here is deliberately loose).
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g, err := gen.Bipartite(gen.FewgManyg, 640, 64, 8, 5, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		r, err := CompetitiveRatio(g)
		if err != nil {
			t.Fatal(err)
		}
		if r < 1 || r > 2 {
			t.Fatalf("trial %d: ratio %v out of [1,2]", trial, r)
		}
	}
	_ = rng
}

func TestReplayWeightedUsesMinWeight(t *testing.T) {
	b := bipartite.NewBuilder(1, 2)
	b.AddWeightedEdge(0, 0, 7)
	b.AddWeightedEdge(0, 1, 3)
	g := b.MustBuild()
	_, m, err := Replay(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Fatalf("makespan = %d, want 3 (task size = min weight)", m)
	}
}

func TestReplayIsolatedTaskFails(t *testing.T) {
	g, err := bipartite.NewFromAdjacency(1, [][]int{{0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Replay(g, nil); err == nil {
		t.Fatal("isolated task accepted")
	}
}

func BenchmarkReplay(b *testing.B) {
	g, err := gen.Bipartite(gen.FewgManyg, 20480, 1024, 32, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Replay(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// A long random stream of weighted arrivals keeps the scheduler's load
// vector equal to one recomputed from the placements it returned, every
// placement lands on an eligible processor no more loaded than any other
// eligible one, and Makespan matches the recomputed maximum.
func TestChurnLoadsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const procs = 5
	s := New(procs)
	want := make([]int64, procs)
	for step := 0; step < 500; step++ {
		d := 1 + rng.Intn(procs)
		eligible := make([]int32, 0, d)
		for _, p := range rng.Perm(procs)[:d] {
			eligible = append(eligible, int32(p))
		}
		w := 1 + rng.Int63n(9)
		p, err := s.Assign(eligible, w)
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, q := range eligible {
			if q == p {
				ok = true
			}
			if want[q] < want[p] {
				t.Fatalf("step %d: placed on P%d (load %d) while eligible P%d had load %d", step, p, want[p], q, want[q])
			}
		}
		if !ok {
			t.Fatalf("step %d: placed on ineligible P%d", step, p)
		}
		want[p] += w
	}
	got := s.Loads()
	var max int64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("load[%d]=%d want %d", i, got[i], want[i])
		}
		if want[i] > max {
			max = want[i]
		}
	}
	if s.Makespan() != max {
		t.Fatalf("makespan=%d want %d", s.Makespan(), max)
	}
	if s.Placed() != 500 {
		t.Fatalf("placed=%d want 500", s.Placed())
	}
}
