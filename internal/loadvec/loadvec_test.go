package loadvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// staged and stagedAdd return a fresh candidate staged against tr.
func staged(tr *Tracker[int64], procs []int32, vals []int64) *Candidate[int64] {
	c := new(Candidate[int64])
	tr.Stage(c, procs, vals)
	return c
}

func stagedAdd(tr *Tracker[int64], procs []int32, delta int64) *Candidate[int64] {
	c := new(Candidate[int64])
	tr.StageAdd(c, procs, delta)
	return c
}

// setAll and addAll apply a batch update to tr through a staged candidate.
func setAll[T Value](tr *Tracker[T], procs []int32, vals []T) {
	var c Candidate[T]
	tr.Stage(&c, procs, vals)
	tr.Commit(&c)
}

func addAll[T Value](tr *Tracker[T], procs []int32, delta T) {
	var c Candidate[T]
	tr.StageAdd(&c, procs, delta)
	tr.Commit(&c)
}

// resultVec is the descending vector tr would hold after committing c.
func resultVec[T Value](tr *Tracker[T], c *Candidate[T]) []T {
	return tr.appendResult([]T{}, c)
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

func TestTrackerBasics(t *testing.T) {
	tr := New[int64](4)
	if tr.Len() != 4 || tr.sorted[0] != 0 {
		t.Fatalf("fresh tracker wrong: %v", tr.sorted)
	}
	addAll(tr, []int32{1, 3}, 5)
	if tr.Load(1) != 5 || tr.Load(3) != 5 || tr.Load(0) != 0 {
		t.Fatalf("loads = %v", tr.loads)
	}
	if !reflect.DeepEqual(tr.sorted, []int64{5, 5, 0, 0}) {
		t.Fatalf("sorted = %v", tr.sorted)
	}
	addAll(tr, []int32{1}, 2)
	if tr.sorted[0] != 7 {
		t.Fatalf("Max = %d", tr.sorted[0])
	}
	if !reflect.DeepEqual(tr.sorted, []int64{7, 5, 0, 0}) {
		t.Fatalf("sorted = %v", tr.sorted)
	}
}

func TestTrackerSetAll(t *testing.T) {
	tr := New[int64](3)
	setAll(tr, []int32{0, 1, 2}, []int64{9, 4, 6})
	if !reflect.DeepEqual(tr.sorted, []int64{9, 6, 4}) {
		t.Fatalf("sorted = %v", tr.sorted)
	}
	setAll(tr, []int32{0}, []int64{1})
	if !reflect.DeepEqual(tr.sorted, []int64{6, 4, 1}) {
		t.Fatalf("sorted = %v", tr.sorted)
	}
}

func TestTrackerEmptyBatch(t *testing.T) {
	tr := New[int64](2)
	setAll(tr, nil, nil)
	if !reflect.DeepEqual(tr.sorted, []int64{0, 0}) {
		t.Fatalf("sorted = %v", tr.sorted)
	}
}

func TestCandidateMaxAfterAndCommit(t *testing.T) {
	tr := New[int64](3)
	setAll(tr, []int32{0, 1, 2}, []int64{5, 3, 1})
	c := stagedAdd(tr, []int32{2}, 10)
	if got := resultVec(tr, c)[0]; got != 11 {
		t.Fatalf("max after = %d", got)
	}
	if tr.sorted[0] != 5 {
		t.Fatal("candidate must not mutate tracker")
	}
	tr.Commit(c)
	if tr.sorted[0] != 11 || tr.Load(2) != 11 {
		t.Fatalf("after commit: max=%d load2=%d", tr.sorted[0], tr.Load(2))
	}
}

func TestCompareCandidates(t *testing.T) {
	tr := New[int64](4)
	setAll(tr, []int32{0, 1, 2, 3}, []int64{4, 4, 2, 0})
	// a: +1 on proc 3 → vector [4 4 2 1]
	// b: +1 on proc 2 → vector [4 4 3 0]
	a := stagedAdd(tr, []int32{3}, 1)
	b := stagedAdd(tr, []int32{2}, 1)
	if tr.Compare(a, b) != -1 {
		t.Fatalf("a should beat b: %v vs %v", resultVec(tr, a), resultVec(tr, b))
	}
	if tr.Compare(b, a) != 1 {
		t.Fatal("antisymmetry")
	}
	if tr.Compare(a, a) != 0 {
		t.Fatal("reflexivity")
	}
}

func TestCompareTieOnMaxBrokenLater(t *testing.T) {
	// Both candidates reach max 6; second-largest decides (the paper's
	// vector-greedy tie-breaking).
	tr := New[int64](3)
	setAll(tr, []int32{0, 1, 2}, []int64{6, 2, 2})
	a := staged(tr, []int32{1}, []int64{5}) // [6 5 2]
	b := staged(tr, []int32{1, 2}, []int64{3, 3})
	// b → [6 3 3]: max ties at 6, then 3 < 5, so b wins.
	if tr.Compare(b, a) != -1 {
		t.Fatalf("b should win: %v vs %v", resultVec(tr, b), resultVec(tr, a))
	}
}

func TestFloatTracker(t *testing.T) {
	tr := New[float64](3)
	addAll(tr, []int32{0, 1}, 0.5)
	addAll(tr, []int32{1}, 0.25)
	if tr.Load(1) != 0.75 {
		t.Fatalf("Load(1) = %v", tr.Load(1))
	}
	if !reflect.DeepEqual(tr.sorted, []float64{0.75, 0.5, 0}) {
		t.Fatalf("sorted = %v", tr.sorted)
	}
}

func TestRebuildMatchesIncremental(t *testing.T) {
	tr := New[int64](5)
	setAll(tr, []int32{0, 2, 4}, []int64{7, 7, 1})
	rebuilt := From(tr.loads)
	if !reflect.DeepEqual(tr.sorted, rebuilt.sorted) {
		t.Fatalf("incremental %v != rebuilt %v", tr.sorted, rebuilt.sorted)
	}
	if !reflect.DeepEqual(tr.loads, rebuilt.loads) {
		t.Fatalf("From loads %v, want %v", rebuilt.loads, tr.loads)
	}
}

func TestResultVecMatchesNaive(t *testing.T) {
	tr := New[int64](6)
	setAll(tr, []int32{0, 1, 2, 3, 4, 5}, []int64{9, 7, 7, 3, 1, 0})
	c := staged(tr, []int32{1, 4}, []int64{8, 2})
	want := SortedDesc([]int64{9, 8, 7, 3, 2, 0})
	if got := resultVec(tr, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("resultVec = %v, want %v", got, want)
	}
}

// The zero Candidate is the empty update: it yields the current vector.
func TestZeroCandidateIsCurrentVector(t *testing.T) {
	tr := New[int64](3)
	setAll(tr, []int32{0, 1, 2}, []int64{4, 2, 2})
	var stay Candidate[int64]
	if got := resultVec(tr, &stay); !reflect.DeepEqual(got, tr.sorted) {
		t.Fatalf("resultVec(zero) = %v, want %v", got, tr.sorted)
	}
	if tr.Compare(staged(tr, []int32{0}, []int64{3}), &stay) != -1 {
		t.Fatal("lowering the maximum must beat staying")
	}
	if tr.Compare(stagedAdd(tr, []int32{2}, 1), &stay) != 1 {
		t.Fatal("adding load must lose to staying")
	}
	tr.Commit(&stay)
	if !reflect.DeepEqual(tr.sorted, []int64{4, 2, 2}) {
		t.Fatalf("committing the zero candidate changed the vector: %v", tr.sorted)
	}
}

// A candidate restaged with fewer processors than it last held must not
// keep any of its old update.
func TestRestageShrinks(t *testing.T) {
	tr := New[int64](5)
	setAll(tr, []int32{0, 1, 2, 3, 4}, []int64{5, 4, 3, 2, 1})
	var c Candidate[int64]
	tr.StageAdd(&c, []int32{0, 1, 2, 3}, 9)
	tr.StageAdd(&c, []int32{4}, 1)
	if got, want := resultVec(tr, &c), []int64{5, 4, 3, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resultVec = %v, want %v", got, want)
	}
	tr.Commit(&c)
	if got, want := tr.sorted, []int64{5, 4, 3, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after commit: %v, want %v", got, want)
	}
}

// Once their buffers have grown, staging, comparing and committing do not
// allocate.
func TestCandidatesAllocationFree(t *testing.T) {
	const p = 64
	tr := New[float64](p)
	procs := make([]int32, 16)
	vals := make([]float64, 16)
	var a, b Candidate[float64]
	round := 0
	run := func() {
		round++
		for i := range procs {
			procs[i] = int32((round*7 + i*3) % p)
			vals[i] = float64((round*13 + i*5) % 17)
		}
		tr.Stage(&a, procs, vals)
		tr.StageAdd(&b, procs[:9], 0.5)
		if tr.Compare(&a, &b) < 0 {
			a, b = b, a
		}
		tr.Commit(&b)
		tr.Stage(&a, procs[:3], vals[:3])
		tr.Commit(&a)
		tr.StageAdd(&a, procs[3:12], 1)
		tr.Commit(&a)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("%.1f allocations per round, want 0", allocs)
	}
}

// Property: incremental tracker state always equals naive sort of loads,
// through random batched updates.
func TestPropertyIncrementalEqualsNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(20)
		tr := New[int64](p)
		ref := make([]int64, p)
		for step := 0; step < 30; step++ {
			k := 1 + rng.Intn(p)
			procs := rng.Perm(p)[:k]
			ps := make([]int32, k)
			vals := make([]int64, k)
			for i, u := range procs {
				ps[i] = int32(u)
				vals[i] = rng.Int63n(100)
				ref[u] = vals[i]
			}
			setAll(tr, ps, vals)
			if !reflect.DeepEqual(tr.sorted, SortedDesc(ref)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare(a,b) agrees with naive full-vector comparison.
func TestPropertyCompareEqualsNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(15)
		tr := New[int64](p)
		initProcs := make([]int32, p)
		initVals := make([]int64, p)
		for u := 0; u < p; u++ {
			initProcs[u] = int32(u)
			initVals[u] = rng.Int63n(20)
		}
		setAll(tr, initProcs, initVals)
		mk := func() *Candidate[int64] {
			k := 1 + rng.Intn(p)
			perm := rng.Perm(p)[:k]
			ps := make([]int32, k)
			vals := make([]int64, k)
			for i, u := range perm {
				ps[i] = int32(u)
				vals[i] = rng.Int63n(30)
			}
			return staged(tr, ps, vals)
		}
		a, b := mk(), mk()
		naive := CompareVec(resultVec(tr, a), resultVec(tr, b))
		return tr.Compare(a, b) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: committing the better of two candidates always yields a sorted
// vector ≤ the other choice's (consistency of Compare with Commit).
func TestPropertyCommitConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(10)
		tr1 := New[int64](p)
		tr2 := New[int64](p)
		base := make([]int64, p)
		procs := make([]int32, p)
		for u := 0; u < p; u++ {
			procs[u] = int32(u)
			base[u] = rng.Int63n(10)
		}
		setAll(tr1, procs, base)
		setAll(tr2, procs, base)
		k := 1 + rng.Intn(p)
		ps := make([]int32, k)
		for i, u := range rng.Perm(p)[:k] {
			ps[i] = int32(u)
		}
		c1 := stagedAdd(tr1, ps, 3)
		c2 := stagedAdd(tr2, ps, 3)
		tr1.Commit(c1)
		vec := resultVec(tr2, c2)
		return reflect.DeepEqual(tr1.sorted, vec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompareFast(b *testing.B) {
	const p = 4096
	rng := rand.New(rand.NewSource(1))
	tr := New[int64](p)
	procs := make([]int32, p)
	vals := make([]int64, p)
	for u := 0; u < p; u++ {
		procs[u] = int32(u)
		vals[u] = rng.Int63n(1000)
	}
	setAll(tr, procs, vals)
	a := stagedAdd(tr, []int32{1, 5, 9}, 7)
	c := stagedAdd(tr, []int32{2, 6, 10}, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Compare(a, c)
	}
}

func BenchmarkCompareNaive(b *testing.B) {
	const p = 4096
	rng := rand.New(rand.NewSource(1))
	loads := make([]int64, p)
	for u := range loads {
		loads[u] = rng.Int63n(1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := SortedDesc(loads)
		vb := SortedDesc(loads)
		CompareVec(va, vb)
	}
}

func BenchmarkSetAllIncremental(b *testing.B) {
	const p = 4096
	tr := New[int64](p)
	var c Candidate[int64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StageAdd(&c, []int32{int32(i % p), int32((i + 7) % p)}, 1)
		tr.Commit(&c)
	}
}
