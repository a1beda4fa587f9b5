package flatcore

import (
	"math/rand"
	"sort"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

func randGraph(rng *rand.Rand, n, p, deg int, wmax int64) *bipartite.Graph {
	b := bipartite.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		perm := rng.Perm(p)
		d := 1 + rng.Intn(deg)
		if d > p {
			d = p
		}
		for _, proc := range perm[:d] {
			b.AddWeightedEdge(t, proc, 1+rng.Int63n(wmax))
		}
	}
	return b.MustBuild()
}

func randHyper(rng *rand.Rand, n, p, deg, maxSize int, wmax int64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		d := 1 + rng.Intn(deg)
		for e := 0; e < d; e++ {
			sz := 1 + rng.Intn(maxSize)
			if sz > p {
				sz = p
			}
			perm := rng.Perm(p)
			b.AddEdge(t, perm[:sz], 1+rng.Int63n(wmax))
		}
	}
	return b.MustBuild()
}

// brute explores every assignment of the compiled shape below a given
// prefix of child ordinals and returns the best completion makespan.
func brute(pr *MP, prefix []int32) int64 {
	loads := make([]int64, pr.P)
	var cur int64
	apply := func(k int, curMax int64) int64 {
		e, w := pr.ChildEdge[k], pr.ChildWt[k]
		for _, u := range pr.Pins[pr.PinPtr[e]:pr.PinPtr[e+1]] {
			loads[u] += w
			if loads[u] > curMax {
				curMax = loads[u]
			}
		}
		return curMax
	}
	undo := func(k int) {
		e, w := pr.ChildEdge[k], pr.ChildWt[k]
		for _, u := range pr.Pins[pr.PinPtr[e]:pr.PinPtr[e+1]] {
			loads[u] -= w
		}
	}
	for d, ord := range prefix {
		cur = apply(int(pr.ChildPtr[d])+int(ord), cur)
	}
	best := int64(1) << 62
	var rec func(i int, curMax int64)
	rec = func(i int, curMax int64) {
		if curMax >= best {
			return
		}
		if i == pr.N {
			best = curMax
			return
		}
		for k := int(pr.ChildPtr[i]); k < int(pr.ChildPtr[i+1]); k++ {
			nm := apply(k, curMax)
			rec(i+1, nm)
			undo(k)
		}
	}
	rec(len(prefix), cur)
	return best
}

// blockHyper builds an instance with guaranteed processor symmetry: the
// processors split into two blocks, and each task runs on one block with
// one weight per configuration size — every single processor of the
// block, and (with maxSize 2) every pair within it. Any transposition
// inside a block is an automorphism.
func blockHyper(rng *rand.Rand, n, p, maxSize int) *hypergraph.Hypergraph {
	cut := 1 + rng.Intn(p-1)
	b := hypergraph.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		lo, hi := 0, cut
		if rng.Intn(2) == 1 {
			lo, hi = cut, p
		}
		w1, w2 := 1+rng.Int63n(20), 1+rng.Int63n(20)
		for u := lo; u < hi; u++ {
			b.AddEdge(t, []int{u}, w1)
			for v := u + 1; maxSize > 1 && v < hi; v++ {
				b.AddEdge(t, []int{u, v}, w2)
			}
		}
	}
	return b.MustBuild()
}

// singletonInputs lifts random SINGLEPROC graphs into singleton form:
// the SINGLEPROC instances the one compiler must handle.
func singletonInputs(rng *rand.Rand, trials int, n func() int, p func() int, deg int, wmax int64) []*hypergraph.Hypergraph {
	out := make([]*hypergraph.Hypergraph, trials)
	for i := range out {
		out[i] = hypergraph.FromGraph(randGraph(rng, n(), p(), deg, wmax))
	}
	return out
}

// TestCompileMPInvariants checks the compiled invariants on random
// multi-pin hypergraphs.
func TestCompileMPInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var inputs []*hypergraph.Hypergraph
	for trial := 0; trial < 60; trial++ {
		inputs = append(inputs, randHyper(rng, 3+rng.Intn(6), 2+rng.Intn(3), 3, 2, 20))
	}
	checkCompileInvariants(t, inputs)
}

// TestCompileSPInvariants checks the same invariants on random
// SINGLEPROC graphs in singleton form.
func TestCompileSPInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkCompileInvariants(t, singletonInputs(rng, 60,
		func() int { return 3 + rng.Intn(7) }, func() int { return 2 + rng.Intn(3) }, 3, 20))
}

// checkCompileInvariants: CSR structure, sort order, pin bitsets and
// ChildPin, suffix bounds, EqPrev correctness, and the root bound
// sandwich of CompileMP on each input.
func checkCompileInvariants(t *testing.T, inputs []*hypergraph.Hypergraph) {
	t.Helper()
	for trial, h := range inputs {
		pr := CompileMP(h)
		if pr.N != h.NTasks || pr.P != h.NProcs {
			t.Fatal("dims")
		}
		_, maxSize := h.MinMaxEdgeSize()
		if pr.MaxSize != maxSize || pr.Single != (maxSize == 1) {
			t.Fatalf("trial %d: MaxSize %d Single %v, want %d", trial, pr.MaxSize, pr.Single, maxSize)
		}
		seen := make([]bool, pr.N)
		for i := 0; i < pr.N; i++ {
			tsk := int(pr.Order[i])
			seen[tsk] = true
			base, end := int(pr.ChildPtr[i]), int(pr.ChildPtr[i+1])
			if end-base != h.TaskDegree(tsk) {
				t.Fatalf("trial %d: position %d child count mismatch", trial, i)
			}
			for k := base; k < end; k++ {
				e := pr.ChildEdge[k]
				if h.Owner[e] != int32(tsk) {
					t.Fatalf("trial %d: child edge %d not owned by task %d", trial, e, tsk)
				}
				if pr.ChildWt[k] != h.Weight[e] || pr.ChildCost[k] != h.Weight[e]*int64(h.EdgeSize(e)) {
					t.Fatalf("trial %d: child weight/cost mismatch", trial)
				}
				if pr.ChildPin[k] != h.EdgeProcs(e)[0] {
					t.Fatalf("trial %d: ChildPin[%d] = %d, want first pin of edge %d", trial, k, pr.ChildPin[k], e)
				}
				if k > base && pr.ChildCost[k] < pr.ChildCost[k-1] {
					t.Fatalf("trial %d: children not cost-sorted", trial)
				}
				bits := Bitset(pr.PinBits[int(e)*pr.PinWords : (int(e)+1)*pr.PinWords])
				n := 0
				for _, u := range h.EdgeProcs(e) {
					if !bits.Has(u) {
						t.Fatalf("trial %d: pin bit missing", trial)
					}
					n++
				}
				pop := 0
				for _, w := range bits {
					for ; w != 0; w &= w - 1 {
						pop++
					}
				}
				if pop != n {
					t.Fatalf("trial %d: pin bitset popcount %d ≠ %d", trial, pop, n)
				}
			}
			if pr.EqPrev[i] {
				pb := int(pr.ChildPtr[i-1])
				if int(pr.ChildPtr[i])-pb != end-base {
					t.Fatalf("trial %d: EqPrev with unequal degrees", trial)
				}
				for k := 0; k < end-base; k++ {
					ea, eb := pr.ChildEdge[pb+k], pr.ChildEdge[base+k]
					if h.Weight[ea] != h.Weight[eb] {
						t.Fatalf("trial %d: EqPrev weight mismatch", trial)
					}
					wa := pr.PinBits[int(ea)*pr.PinWords : (int(ea)+1)*pr.PinWords]
					wb := pr.PinBits[int(eb)*pr.PinWords : (int(eb)+1)*pr.PinWords]
					if !EqualWords(wa, wb) {
						t.Fatalf("trial %d: EqPrev pin-set mismatch", trial)
					}
				}
			}
		}
		for _, s := range seen {
			if !s {
				t.Fatalf("trial %d: Order is not a permutation", trial)
			}
		}
		var sum, mx int64
		for i := pr.N - 1; i >= 0; i-- {
			sum += pr.ChildCost[pr.ChildPtr[i]]
			mx = max(mx, pr.MinW[i])
			if pr.SuffixAvg[i] != sum || pr.SuffixMax[i] != mx {
				t.Fatalf("trial %d: suffix bounds at %d = (%d, %d), want (%d, %d)", trial, i, pr.SuffixAvg[i], pr.SuffixMax[i], sum, mx)
			}
		}
		// Bound sandwich: every root bound is ≤ the optimum, and Root()
		// is at least each component.
		opt := brute(pr, nil)
		for _, b := range []int64{pr.Bounds.Avg, pr.Bounds.MaxElem, pr.Bounds.Pack, pr.Bounds.Match} {
			if b > opt {
				t.Fatalf("trial %d: root bound %d exceeds optimum %d (%+v)", trial, b, opt, pr.Bounds)
			}
			if pr.Bounds.Root() < b {
				t.Fatalf("trial %d: Root() below a component", trial)
			}
		}
	}
}

// TestSingleTieBreak pins the branch-order tie-break between tasks whose
// configuration lists differ only in the processors they name: ascending
// processor order on a singleton shape, descending on a multi-pin one.
// The recorded sp-restricted and mp-random node counts each depend on
// their own rule.
func TestSingleTieBreak(t *testing.T) {
	b := hypergraph.NewBuilder(2, 3)
	b.AddEdge(0, []int{1}, 5)
	b.AddEdge(1, []int{0}, 5)
	if got := CompileMP(b.MustBuild()).Order; got[0] != 1 {
		t.Fatalf("singleton shape: order %v, want the task on processor 0 first", got)
	}
	b = hypergraph.NewBuilder(3, 3)
	b.AddEdge(0, []int{1}, 5)
	b.AddEdge(1, []int{0}, 5)
	b.AddEdge(2, []int{0, 2}, 9)
	// Task 2 (cost 18) leads; tasks 0 and 1 tie on content.
	if got := CompileMP(b.MustBuild()).Order; got[1] != 0 || got[2] != 1 {
		t.Fatalf("multi-pin shape: order %v, want the task on processor 1 first", got)
	}
}

// TestMPSigAutomorphism: for every pair of processors sharing a
// signature, transposing them must map the edge multiset onto itself —
// checked directly against the hypergraph. SINGLEPROC graphs in singleton
// form are checked the other way too: processors with identical (task,
// weight) rows must share a signature, because swapping them is an
// automorphism the search should exploit.
func TestMPSigAutomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var inputs []*hypergraph.Hypergraph
	for trial := 0; trial < 60; trial++ {
		inputs = append(inputs, randHyper(rng, 4+rng.Intn(5), 2+rng.Intn(3), 2, 2, 2))
		inputs = append(inputs, blockHyper(rng, 3+rng.Intn(4), 2+rng.Intn(4), 1+trial%2))
	}
	// Every processor has the same incidence profile, but only (0 2) and
	// (1 3) are automorphisms: task 0 runs on {0,2} or on {1,3}.
	cb := hypergraph.NewBuilder(1, 4)
	cb.AddEdge(0, []int{0, 2}, 1)
	cb.AddEdge(0, []int{1, 3}, 1)
	inputs = append(inputs, cb.MustBuild())
	// Low weight spread so identical rows actually occur.
	srng := rand.New(rand.NewSource(3))
	inputs = append(inputs, singletonInputs(srng, 40,
		func() int { return 4 + srng.Intn(5) }, func() int { return 2 + srng.Intn(3) }, 3, 2)...)
	checked := 0
	for trial, h := range inputs {
		pr := CompileMP(h)
		type key struct {
			owner int32
			w     int64
			pins  string
		}
		multiset := func(swap func(int32) int32) map[key]int {
			m := map[key]int{}
			for e := 0; e < h.NumEdges(); e++ {
				pins := append([]int32(nil), h.EdgeProcs(int32(e))...)
				for i := range pins {
					pins[i] = swap(pins[i])
				}
				sort.Slice(pins, func(i, j int) bool { return pins[i] < pins[j] })
				s := ""
				for _, u := range pins {
					s += string(rune(u)) + ","
				}
				m[key{h.Owner[e], h.Weight[e], s}]++
			}
			return m
		}
		ident := multiset(func(u int32) int32 { return u })
		for a := int32(0); a < int32(pr.P); a++ {
			for b := a + 1; b < int32(pr.P); b++ {
				shared := pr.Sig != nil && pr.Sig[a] >= 0 && pr.Sig[a] == pr.Sig[b]
				if !shared && !pr.Single {
					continue
				}
				swapped := multiset(func(u int32) int32 {
					switch u {
					case a:
						return b
					case b:
						return a
					}
					return u
				})
				auto := len(swapped) == len(ident)
				for k, c := range ident {
					auto = auto && swapped[k] == c
				}
				if shared && !auto {
					t.Fatalf("trial %d: swap (%d %d) changes edge multiset", trial, a, b)
				}
				if pr.Single && auto && !shared {
					t.Fatalf("trial %d: procs %d,%d have identical rows but no shared signature", trial, a, b)
				}
				if shared {
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no symmetric pairs generated")
	}
	t.Logf("%d symmetric pairs verified", checked)
}

// TestCompletePruneSound: whenever CompletePrune fires at a random
// interior node, brute-force completion confirms the subtree really
// cannot beat the incumbent bound — on SINGLEPROC graphs in singleton
// form and on multi-pin hypergraphs alike.
func TestCompletePruneSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fired := 0
	for trial := 0; trial < 80; trial++ {
		for _, h := range []*hypergraph.Hypergraph{
			hypergraph.FromGraph(randGraph(rng, 4+rng.Intn(5), 2+rng.Intn(3), 3, 20)),
			randHyper(rng, 4+rng.Intn(4), 2+rng.Intn(3), 2, 2, 15),
		} {
			pr := CompileMP(h)
			from := rng.Intn(pr.N)
			prefix := make([]int32, from)
			loads := make([]int64, pr.P)
			for d := 0; d < from; d++ {
				deg := int(pr.ChildPtr[d+1] - pr.ChildPtr[d])
				ord := int32(rng.Intn(deg))
				prefix[d] = ord
				k := int(pr.ChildPtr[d]) + int(ord)
				e, w := pr.ChildEdge[k], pr.ChildWt[k]
				for _, u := range pr.Pins[pr.PinPtr[e]:pr.PinPtr[e+1]] {
					loads[u] += w
				}
			}
			opt := brute(pr, prefix)
			// A prune at best = opt claims only that nothing below opt
			// exists — true, so it may fire. At best = opt+1 the claim
			// "nothing below opt+1" is false: the prune must not fire.
			if pr.CompletePrune(loads, from, opt) {
				fired++
			}
			if pr.CompletePrune(loads, from, opt+1) {
				t.Fatalf("trial %d (Single=%v): CompletePrune fired although completion %d < best %d exists", trial, pr.Single, opt, opt+1)
			}
		}
	}
	t.Logf("prune fired on %d exact-threshold probes", fired)
}

// TestBitset: basic bit operations.
func TestBitset(t *testing.T) {
	b := make(Bitset, BitsetWords(130))
	for _, i := range []int32{0, 63, 64, 127, 129} {
		if b.Has(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Has(1) || b.Has(128) {
		t.Fatal("stray bit")
	}
	c := make(Bitset, BitsetWords(130))
	if EqualWords(b, c) {
		t.Fatal("unequal bitsets compare equal")
	}
	copy(c, b)
	if !EqualWords(b, c) {
		t.Fatal("equal bitsets compare unequal")
	}
}
