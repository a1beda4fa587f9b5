package gen

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"semimatch/internal/core"
)

func TestBinomialMeanAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, trials = 20, 20000
	sum := 0
	for i := 0; i < trials; i++ {
		k := Binomial(rng, n)
		if k < 0 || k > n {
			t.Fatalf("Binomial out of range: %d", k)
		}
		sum += k
	}
	mean := float64(sum) / trials
	if math.Abs(mean-10) > 0.2 {
		t.Fatalf("Binomial(20) mean = %v, want ≈10", mean)
	}
}

func TestBinomialLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 200 // exercises the 63-bit chunking
	for i := 0; i < 100; i++ {
		k := Binomial(rng, n)
		if k < 0 || k > n {
			t.Fatalf("Binomial(%d) = %d", n, k)
		}
	}
	if Binomial(rng, 0) != 0 {
		t.Fatal("Binomial(0) must be 0")
	}
}

func TestGroupsEven(t *testing.T) {
	off := groups(12, 4)
	if !reflect.DeepEqual(off, []int{0, 3, 6, 9, 12}) {
		t.Fatalf("groups = %v", off)
	}
}

func TestGroupsUneven(t *testing.T) {
	off := groups(10, 4)
	if off[4] != 10 {
		t.Fatalf("last offset = %d", off[4])
	}
	for j := 0; j < 4; j++ {
		sz := off[j+1] - off[j]
		if sz != 2 && sz != 3 {
			t.Fatalf("group %d size %d", j, sz)
		}
	}
}

func TestHiLoDeterministicAndValid(t *testing.T) {
	g1, err := Bipartite(HiLo, 64, 16, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Bipartite(HiLo, 64, 16, 4, 3, 999)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Adj, g2.Adj) {
		t.Fatal("HiLo must ignore the seed")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g1.NLeft; u++ {
		if g1.Degree(u) == 0 {
			t.Fatalf("HiLo produced isolated task %d", u)
		}
		if g1.Degree(u) > 2*(3+1) {
			t.Fatalf("HiLo degree %d too large for d=3", g1.Degree(u))
		}
	}
}

func TestHiLoBandStructure(t *testing.T) {
	// One group, d=1: task i connects to y_k for k = max(1,min(i,p)-1) ..
	// min(i,p). Task 1 (0-based 0) → {y1}; task 2 → {y1,y2}.
	g, err := Bipartite(HiLo, 4, 4, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("task0 = %v", got)
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("task1 = %v", got)
	}
	if got := g.Neighbors(3); !reflect.DeepEqual(got, []int32{2, 3}) {
		t.Fatalf("task3 = %v", got)
	}
}

func TestHiLoUniquePerfectMatchingSquare(t *testing.T) {
	// The defining property of HiLo with |V1| = |V2|: a unique maximum
	// matching of full cardinality exists, hence optimal makespan 1.
	g, err := Bipartite(HiLo, 32, 32, 4, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := core.ExactUnit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("square HiLo optimal makespan = %d, want 1", d)
	}
}

func TestFewgManygSeedDeterminism(t *testing.T) {
	a, err := Bipartite(FewgManyg, 100, 20, 4, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bipartite(FewgManyg, 100, 20, 4, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Adj, b.Adj) {
		t.Fatal("same seed must reproduce the instance")
	}
	c, err := Bipartite(FewgManyg, 100, 20, 4, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Adj, c.Adj) {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}

func TestFewgManygDegreesAndLocality(t *testing.T) {
	const n, p, g, d = 400, 40, 4, 5
	gr, err := Bipartite(FewgManyg, n, p, g, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
	offL := groups(n, g)
	offR := groups(p, g)
	total := 0
	for u := 0; u < n; u++ {
		deg := gr.Degree(u)
		if deg < 1 {
			t.Fatalf("task %d isolated", u)
		}
		total += deg
		// Locality: neighbors only in adjacent right groups.
		ug := 0
		for offL[ug+1] <= u {
			ug++
		}
		allowed := map[int]bool{(ug - 1 + g) % g: true, ug: true, (ug + 1) % g: true}
		for _, v := range gr.Neighbors(u) {
			vg := 0
			for offR[vg+1] <= int(v) {
				vg++
			}
			if !allowed[vg] {
				t.Fatalf("task %d (group %d) linked to processor group %d", u, ug, vg)
			}
		}
	}
	mean := float64(total) / n
	if mean < float64(d)-1 || mean > float64(d)+1 {
		t.Fatalf("mean degree %v, want ≈%d", mean, d)
	}
}

func TestBipartiteParamErrors(t *testing.T) {
	if _, err := Bipartite(HiLo, 10, 2, 4, 3, 0); err == nil {
		t.Fatal("p < g accepted for HiLo")
	}
	if _, err := Bipartite(Generator(99), 10, 10, 2, 2, 0); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := Bipartite(FewgManyg, -1, 10, 2, 2, 0); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestHypergraphUnit(t *testing.T) {
	p := HyperParams{Gen: FewgManyg, N: 320, P: 64, Dv: 5, Dh: 10, G: 8, Weights: Unit}
	h, err := Hypergraph(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if !h.Unit() {
		t.Fatal("unit scheme must produce a unit hypergraph")
	}
	if h.NTasks != 320 || h.NProcs != 64 {
		t.Fatalf("sizes: %d %d", h.NTasks, h.NProcs)
	}
	// |N| ≈ N·Dv.
	if h.NumEdges() < 320*3 || h.NumEdges() > 320*7 {
		t.Fatalf("|N| = %d, want ≈%d", h.NumEdges(), 320*5)
	}
}

func TestHypergraphRelatedWeights(t *testing.T) {
	p := HyperParams{Gen: HiLo, N: 128, P: 32, Dv: 3, Dh: 4, G: 4, Weights: Related}
	h, err := Hypergraph(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	minS, maxS := h.MinMaxEdgeSize()
	for e := int32(0); int(e) < h.NumEdges(); e++ {
		s := int64(h.EdgeSize(e))
		want := (int64(minS)*int64(maxS) + s - 1) / s
		if h.Weight[e] != want {
			t.Fatalf("edge %d (size %d): weight %d, want %d", e, s, h.Weight[e], want)
		}
	}
	// Bigger hyperedges get smaller weights.
	if minS != maxS {
		var wSmall, wLarge int64
		for e := int32(0); int(e) < h.NumEdges(); e++ {
			if h.EdgeSize(e) == minS {
				wSmall = h.Weight[e]
			}
			if h.EdgeSize(e) == maxS {
				wLarge = h.Weight[e]
			}
		}
		if wSmall <= wLarge {
			t.Fatalf("related weights not inversely related: small-edge %d, large-edge %d", wSmall, wLarge)
		}
	}
}

func TestHypergraphRandomWeights(t *testing.T) {
	p := HyperParams{Gen: FewgManyg, N: 200, P: 32, Dv: 4, Dh: 5, G: 4, Weights: Random, MaxW: 7}
	h, err := Hypergraph(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int64]bool{}
	for _, w := range h.Weight {
		if w < 1 || w > 7 {
			t.Fatalf("weight %d out of [1,7]", w)
		}
		distinct[w] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("suspiciously few distinct weights: %v", distinct)
	}
}

func TestHypergraphDefaultMaxW(t *testing.T) {
	p := HyperParams{Gen: FewgManyg, N: 400, P: 32, Dv: 4, Dh: 5, G: 4, Weights: Random}
	h, err := Hypergraph(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	over := false
	for _, w := range h.Weight {
		if w > 100 {
			t.Fatalf("weight %d exceeds default MaxW 100", w)
		}
		if w > 7 {
			over = true
		}
	}
	if !over {
		t.Fatal("default MaxW seems not applied")
	}
}

func TestHypergraphSeedDeterminism(t *testing.T) {
	p := HyperParams{Gen: FewgManyg, N: 100, P: 16, Dv: 3, Dh: 4, G: 4, Weights: Related}
	a, err := Hypergraph(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hypergraph(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Pins, b.Pins) || !reflect.DeepEqual(a.Weight, b.Weight) {
		t.Fatal("same seed must reproduce the hypergraph")
	}
}

func TestHypergraphParamErrors(t *testing.T) {
	bad := []HyperParams{
		{Gen: HiLo, N: 0, P: 1, Dv: 1, Dh: 1, G: 1},
		{Gen: HiLo, N: 1, P: 0, Dv: 1, Dh: 1, G: 1},
		{Gen: HiLo, N: 1, P: 1, Dv: 0, Dh: 1, G: 1},
		{Gen: Generator(9), N: 1, P: 1, Dv: 1, Dh: 1, G: 1},
		{Gen: HiLo, N: 1, P: 1, Dv: 1, Dh: 1, G: 1, Weights: WeightScheme(9)},
	}
	for i, p := range bad {
		if _, err := Hypergraph(p, 0); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
	}
}

func TestTable1ShapeFG51(t *testing.T) {
	// FG-5-1-MP: n=1280, p=256, dv=5, dh=10, g=32. Table I reports
	// |N| ≈ 6368 and Σ|h∩V2| ≈ 61643 (per-edge mean ≈ 9.7). Allow slack
	// for generator-choice differences but pin the magnitude.
	h, err := Hypergraph(HyperParams{Gen: FewgManyg, N: 1280, P: 256, Dv: 5, Dh: 10, G: 32, Weights: Unit}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() < 5800 || h.NumEdges() > 7000 {
		t.Fatalf("|N| = %d, want ≈6400", h.NumEdges())
	}
	avg := float64(h.NumPins()) / float64(h.NumEdges())
	if avg < 8.5 || avg > 10.5 {
		t.Fatalf("mean |h∩V2| = %v, want ≈9.7", avg)
	}
}

func TestTable1ShapeHLM51(t *testing.T) {
	// HLM-5-1-MP: HiLo, g=128, p=256 → group size 2, per-edge ≈ 3.9.
	h, err := Hypergraph(HyperParams{Gen: HiLo, N: 1280, P: 256, Dv: 5, Dh: 10, G: 128, Weights: Unit}, 1)
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(h.NumPins()) / float64(h.NumEdges())
	if avg < 3.0 || avg > 4.5 {
		t.Fatalf("mean |h∩V2| = %v, want ≈3.9", avg)
	}
}

func TestPropertyHypergraphAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := HyperParams{
			Gen:     Generator(rng.Intn(2)),
			N:       1 + rng.Intn(100),
			P:       4 + rng.Intn(60),
			Dv:      1 + rng.Intn(5),
			Dh:      1 + rng.Intn(8),
			G:       1 + rng.Intn(4),
			Weights: WeightScheme(rng.Intn(3)),
			MaxW:    1 + rng.Int63n(50),
		}
		h, err := Hypergraph(p, seed)
		if err != nil {
			return false
		}
		return h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHypergraphFG201(b *testing.B) {
	p := HyperParams{Gen: FewgManyg, N: 5120, P: 256, Dv: 5, Dh: 10, G: 32, Weights: Related}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hypergraph(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipartiteHiLo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Bipartite(HiLo, 20480, 1024, 32, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}
