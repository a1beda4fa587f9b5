package loadvec

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// after returns a copy of loads with d added to every processor in procs.
func after[T Value](loads []T, procs []int32, d T) []T {
	out := append([]T(nil), loads...)
	for _, u := range procs {
		out[u] += d
	}
	return out
}

// naiveCompare is Compare by copy and sort of the whole vectors.
func naiveCompare[T Value](loads []T, a []int32, da T, b []int32, db T) int {
	return CompareVec(SortedDesc(after(loads, a, da)), SortedDesc(after(loads, b, db)))
}

// randomUpdates draws two sorted processor sets over p processors: both
// empty, disjoint, overlapping, one empty, or the same set.
func randomUpdates(rng *rand.Rand, p int) (a, b []int32) {
	perm := rng.Perm(p)
	take := func(ps []int) []int32 {
		out := make([]int32, len(ps))
		for i, u := range ps {
			out[i] = int32(u)
		}
		slices.Sort(out)
		return out
	}
	switch rng.Intn(5) {
	case 0: // both empty
		return nil, nil
	case 1: // disjoint
		cut := rng.Intn(p + 1)
		left, right := perm[:cut], perm[cut:]
		return take(left[:rng.Intn(len(left)+1)]), take(right[:rng.Intn(len(right)+1)])
	case 2: // one empty
		return take(perm[:rng.Intn(p+1)]), nil
	case 3: // the same set
		s := take(perm[:rng.Intn(p+1)])
		return s, s
	default: // overlapping at random
		return take(perm[:rng.Intn(p+1)]), take(rng.Perm(p)[:rng.Intn(p+1)])
	}
}

func TestSortedDescAndCompareVec(t *testing.T) {
	v := SortedDesc([]int64{3, 1, 4, 1, 5})
	if !reflect.DeepEqual(v, []int64{5, 4, 3, 1, 1}) {
		t.Fatalf("SortedDesc = %v", v)
	}
	if CompareVec([]int64{5, 4}, []int64{5, 4}) != 0 {
		t.Fatal("equal vectors")
	}
	if CompareVec([]int64{5, 3}, []int64{5, 4}) != -1 {
		t.Fatal("second element decides")
	}
	if CompareVec([]int64{6, 0}, []int64{5, 9}) != 1 {
		t.Fatal("first element dominates")
	}
}

func TestCompareCandidates(t *testing.T) {
	loads := []int64{4, 4, 2, 0}
	// a: +1 on proc 3 → vector [4 4 2 1]
	// b: +1 on proc 2 → vector [4 4 3 0]
	a, b := []int32{3}, []int32{2}
	var c Comparer[int64]
	if c.Compare(loads, a, 1, b, 1) != -1 {
		t.Fatal("a should beat b")
	}
	if c.Compare(loads, b, 1, a, 1) != 1 {
		t.Fatal("antisymmetry")
	}
	if c.Compare(loads, a, 1, a, 1) != 0 {
		t.Fatal("reflexivity")
	}
	if !reflect.DeepEqual(loads, []int64{4, 4, 2, 0}) {
		t.Fatalf("Compare changed the loads: %v", loads)
	}
}

func TestCompareTieOnMaxBrokenLater(t *testing.T) {
	// Both candidates keep the untouched maximum 6; the second-largest
	// decides (the paper's vector-greedy tie-breaking).
	loads := []int64{6, 2, 1, 1}
	var c Comparer[int64]
	a := []int32{1}    // +3 → [6 5 1 1]
	b := []int32{2, 3} // +2 → [6 3 3 2]
	if c.Compare(loads, b, 2, a, 3) != -1 {
		t.Fatal("b should win on the second-largest load")
	}
}

// The empty update changes nothing: comparing with it compares with the
// current vector.
func TestZeroCandidateIsCurrentVector(t *testing.T) {
	loads := []int64{4, 2, 2}
	var c Comparer[int64]
	if c.Compare(loads, []int32{0}, -1, nil, 0) != -1 {
		t.Fatal("lowering the maximum must beat staying")
	}
	if c.Compare(loads, []int32{2}, 1, nil, 0) != 1 {
		t.Fatal("adding load must lose to staying")
	}
	if c.Compare(loads, nil, 0, nil, 0) != 0 || c.Compare(loads, []int32{1}, 0, nil, 7) != 0 {
		t.Fatal("updates that change nothing must tie")
	}
}

// A comparer reused for a smaller pair of updates than it last compared
// must not keep any of the old values.
func TestRestageShrinks(t *testing.T) {
	loads := []int64{5, 4, 3, 2, 1}
	var c Comparer[int64]
	c.Compare(loads, []int32{0, 1, 2, 3}, 9, []int32{4}, 1)
	if got := c.Compare(loads, []int32{4}, 1, []int32{3}, 1); got != -1 {
		t.Fatalf("Compare = %d, want -1: [5 4 3 2 2] beats [5 4 3 3 1]", got)
	}
	if got := c.Compare(loads, nil, 0, nil, 0); got != 0 {
		t.Fatalf("Compare of two empty updates = %d after a larger one", got)
	}
}

// Once its buffers have grown, a Comparer does not allocate.
func TestCandidatesAllocationFree(t *testing.T) {
	const p = 64
	loads := make([]float64, p)
	for u := range loads {
		loads[u] = float64(u%7) / 3
	}
	a := []int32{1, 4, 9, 16, 25, 36, 49}
	b := []int32{2, 4, 8, 16, 32}
	var c Comparer[float64]
	run := func() { c.Compare(loads, a, 0.5, b, 1.5) }
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("%.1f allocations per comparison, want 0", allocs)
	}
}

// Property: over int64 loads, the touched-set comparison equals the
// copy-and-sort comparison of the whole vectors. Loads and weights are
// drawn from a small range to force ties, within and across the vectors.
func TestPropertyCompareEqualsNaive(t *testing.T) {
	var c Comparer[int64]
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(20)
		loads := make([]int64, p)
		for u := range loads {
			loads[u] = rng.Int63n(5)
		}
		a, b := randomUpdates(rng, p)
		da, db := rng.Int63n(4), rng.Int63n(4)
		got := c.Compare(loads, a, da, b, db)
		if want := naiveCompare(loads, a, da, b, db); got != want {
			t.Logf("loads %v, a %v +%d, b %v +%d: Compare %d, naive %d", loads, a, da, b, db, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same over float64 loads that carry rounding, like the
// expected loads o(u) that are sums of w/d shares.
func TestPropertyCompareEqualsNaiveFloat(t *testing.T) {
	var c Comparer[float64]
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(20)
		loads := make([]float64, p)
		for u := range loads {
			for k := rng.Intn(4); k > 0; k-- {
				loads[u] += float64(1+rng.Intn(5)) / float64(1+rng.Intn(3))
			}
		}
		a, b := randomUpdates(rng, p)
		da, db := float64(rng.Intn(4))/3, float64(rng.Intn(4))/3
		got := c.Compare(loads, a, da, b, db)
		if want := naiveCompare(loads, a, da, b, db); got != want {
			t.Logf("loads %v, a %v +%v, b %v +%v: Compare %d, naive %d", loads, a, da, b, db, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a greedy that keeps the first of several candidates no other
// beats, and commits it by adding its weight to the loads, reaches after
// every step the smallest sorted vector among the candidates, and the
// first candidate with it.
func TestPropertyCommitConsistent(t *testing.T) {
	var c Comparer[int64]
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(12)
		loads := make([]int64, p)
		for step := 0; step < 20; step++ {
			k := 1 + rng.Intn(4)
			procs := make([][]int32, k)
			ws := make([]int64, k)
			for i := range procs {
				procs[i], _ = randomUpdates(rng, p)
				ws[i] = 1 + rng.Int63n(3)
			}
			best := 0
			for i := 1; i < k; i++ {
				if c.Compare(loads, procs[i], ws[i], procs[best], ws[best]) < 0 {
					best = i
				}
			}
			want := 0
			for i := 1; i < k; i++ {
				if naiveCompare(loads, procs[i], ws[i], procs[want], ws[want]) < 0 {
					want = i
				}
			}
			if best != want {
				return false
			}
			for _, u := range procs[best] {
				loads[u] += ws[best]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompare compares two 3-processor updates of a 4096-processor
// vector, the case the sorted copy of the whole vector made O(p log p).
func BenchmarkCompare(b *testing.B) {
	const p = 4096
	rng := rand.New(rand.NewSource(1))
	loads := make([]int64, p)
	for u := range loads {
		loads[u] = rng.Int63n(1000)
	}
	x, y := []int32{1, 5, 9}, []int32{2, 6, 10}
	var c Comparer[int64]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Compare(loads, x, 7, y, 7)
	}
}
