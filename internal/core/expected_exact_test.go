package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"semimatch/internal/hypergraph"
	"semimatch/internal/loadvec"
)

// mustLCM adapts an EVG-X variant to the signature of the other vector
// greedies. It panics on the degree lcm error.
func mustLCM(run func(*hypergraph.Hypergraph) (HyperAssignment, error)) func(*hypergraph.Hypergraph) HyperAssignment {
	return func(h *hypergraph.Hypergraph) HyperAssignment {
		a, err := run(h)
		if err != nil {
			panic(err)
		}
		return a
	}
}

// expectedVectorExactNaive is ExpectedVectorGreedyHypExact by copy and
// sort: each candidate's Algorithm 5 update over the scaled integers is
// applied to a copy of the whole vector, which is then sorted.
func expectedVectorExactNaive(h *hypergraph.Hypergraph) (HyperAssignment, error) {
	d, err := lcmDegrees(h)
	if err != nil {
		return nil, err
	}
	a := make(HyperAssignment, h.NTasks)
	o := initExpectedScaled(h, d)
	tmp := make([]int64, h.NProcs)
	for _, t := range hyperTaskOrder(h) {
		bestE := Unassigned
		var bestVec []int64
		for _, e := range h.TaskEdges(int(t)) {
			copy(tmp, o)
			commitExpectedScaled(h, int(t), e, tmp, d)
			if vec := loadvec.SortedDesc(tmp); bestE == Unassigned || loadvec.CompareVec(vec, bestVec) < 0 {
				bestE, bestVec = e, vec
			}
		}
		a[t] = bestE
		if bestE != Unassigned {
			commitExpectedScaled(h, int(t), bestE, o, d)
		}
	}
	return a, nil
}

func TestExactArithmeticValidAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHyper(rng, 1+rng.Intn(25), 1+rng.Intn(8), 4, 4, 9)
		a1, err := ExpectedGreedyHypExact(h, HyperOptions{})
		if err != nil || ValidateHyperAssignment(h, a1) != nil {
			return false
		}
		a2, err := ExpectedVectorGreedyHypExact(h)
		if err != nil || ValidateHyperAssignment(h, a2) != nil {
			return false
		}
		lb := LowerBound(h)
		return HyperMakespan(h, a1) >= lb && HyperMakespan(h, a2) >= lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestExactArithmeticDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHyper(rng, 30, 6, 4, 4, 9)
	a1, err := ExpectedVectorGreedyHypExact(h)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ExpectedVectorGreedyHypExact(h)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("not deterministic")
	}
}

func TestExactMatchesFloatOnSmallDegrees(t *testing.T) {
	// With degrees that are powers of two, all shares w/d are exact in
	// float64 too, so the float and integer algorithms must agree
	// decision for decision.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		b := hypergraph.NewBuilder(10, 5)
		for task := 0; task < 10; task++ {
			d := []int{1, 2, 4}[rng.Intn(3)]
			for j := 0; j < d; j++ {
				size := 1 + rng.Intn(3)
				b.AddEdge(task, rng.Perm(5)[:size], 1+rng.Int63n(9))
			}
		}
		h := b.MustBuild()
		af := ExpectedGreedyHyp(h, HyperOptions{})
		ax, err := ExpectedGreedyHypExact(h, HyperOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(af, ax) {
			t.Fatalf("trial %d: float %v != exact %v (power-of-two degrees must agree)", trial, af, ax)
		}
		vf := ExpectedVectorGreedyHyp(h, HyperOptions{})
		vx, err := ExpectedVectorGreedyHypExact(h)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vf, vx) {
			t.Fatalf("trial %d: EVG float %v != exact %v", trial, vf, vx)
		}
	}
}

func TestExactQualityCloseToFloat(t *testing.T) {
	// On general instances the two arithmetics may break ties
	// differently, but the resulting makespans should be essentially the
	// same (the ablation's conclusion).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		h := randomHyper(rng, 60, 10, 4, 4, 9)
		mf := HyperMakespan(h, ExpectedGreedyHyp(h, HyperOptions{}))
		ax, err := ExpectedGreedyHypExact(h, HyperOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mx := HyperMakespan(h, ax)
		diff := mf - mx
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.2*float64(mf) {
			t.Fatalf("trial %d: float %d vs exact %d diverge by >20%%", trial, mf, mx)
		}
	}
}

func TestLcmDegreesOverflowGuard(t *testing.T) {
	// Degrees 2..47 prime-ish push the lcm over the guard.
	b := hypergraph.NewBuilder(12, 4)
	degs := []int{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
	for task, d := range degs {
		for j := 0; j < d; j++ {
			b.AddEdge(task, []int{j % 4}, 1)
		}
	}
	h := b.MustBuild()
	if _, err := ExpectedGreedyHypExact(h, HyperOptions{}); err == nil {
		t.Fatal("expected overflow guard to trip")
	}
}

func TestGcdLcm(t *testing.T) {
	if gcd(12, 18) != 6 || gcd(7, 13) != 1 || gcd(5, 0) != 5 {
		t.Fatal("gcd wrong")
	}
	if lcm(4, 6) != 12 || lcm(1, 9) != 9 {
		t.Fatal("lcm wrong")
	}
}
