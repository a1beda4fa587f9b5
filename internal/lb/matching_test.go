package lb

import (
	"math/rand"
	"testing"

	"semimatch/internal/flow"
	"semimatch/internal/hypergraph"
)

// matchingHyperRef is the plain form of MatchingHyper: a fresh network
// per probe and a bisection over [lo, sum]. MatchingHyper's one
// re-capped network and galloping search must return the same value.
func matchingHyperRef(h *hypergraph.Hypergraph) int64 {
	n, p := h.NTasks, h.NProcs
	if n == 0 || p == 0 {
		return 0
	}
	m := MinPlacementsHyper(h)
	var sum, maxElem int64
	for _, x := range m {
		sum += x
		maxElem = max(maxElem, x)
	}
	feasible := func(T int64) bool {
		net := flow.NewNetwork(n + p + 2)
		s, t := n+p, n+p+1
		var want int64
		for task := 0; task < n; task++ {
			if m[task] == 0 {
				continue
			}
			net.AddArc(s, task, m[task])
			want += m[task]
			for _, e := range h.TaskEdges(task) {
				if h.Weight[e] > T {
					continue
				}
				for _, u := range h.EdgeProcs(e) {
					net.AddArc(task, n+int(u), m[task])
				}
			}
		}
		for proc := 0; proc < p; proc++ {
			net.AddArc(n+proc, t, T)
		}
		return net.MaxFlow(s, t) == want
	}
	lo := max((sum+int64(p)-1)/int64(p), maxElem)
	hi := max(sum, lo)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cheapBound returns the search's start lo = max(⌈Σm/p⌉, max m) and its
// ceiling sum = Σm.
func cheapBound(h *hypergraph.Hypergraph) (lo, sum int64) {
	m := MinPlacementsHyper(h)
	for _, x := range m {
		sum += x
	}
	return trivialBound(m, h.NProcs), sum
}

// decodeHyper reads a hypergraph with 1–24 tasks, 1–10 processors, 1–4
// configurations per task and weights 1–64 from fuzz bytes; missing bytes
// read as zero. Layout: n-1, p-1, then per task deg-1 and per
// configuration a weight byte and a two-byte processor mask (an empty
// mask falls back to processor 0).
func decodeHyper(data []byte) *hypergraph.Hypergraph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, p := 1+next()%24, 1+next()%10
	b := hypergraph.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		deg := 1 + next()%4
		for c := 0; c < deg; c++ {
			w := int64(1 + next()%64)
			mask := (next() | next()<<8) & (1<<p - 1)
			var procs []int
			for u := 0; u < p; u++ {
				if mask&(1<<u) != 0 {
					procs = append(procs, u)
				}
			}
			if len(procs) == 0 {
				procs = []int{0}
			}
			b.AddEdge(t, procs, w)
		}
	}
	return b.MustBuild()
}

// seedConfig is one configuration of a seed instance: its weight and
// processors.
type seedConfig struct {
	w     int
	procs []int
}

// encodeHyper is decodeHyper's inverse for seed instances: tasks[t] lists
// task t's configurations.
func encodeHyper(p int, tasks [][]seedConfig) []byte {
	data := []byte{byte(len(tasks) - 1), byte(p - 1)}
	for _, cfgs := range tasks {
		data = append(data, byte(len(cfgs)-1))
		for _, c := range cfgs {
			mask := 0
			for _, u := range c.procs {
				mask |= 1 << u
			}
			data = append(data, byte(c.w-1), byte(mask), byte(mask>>8))
		}
	}
	return data
}

// repeatTask returns n copies of one task's configurations.
func repeatTask(n int, cfgs ...seedConfig) [][]seedConfig {
	tasks := make([][]seedConfig, n)
	for i := range tasks {
		tasks[i] = cfgs
	}
	return tasks
}

// matchingSeeds covers the ways the search ends: at the cheap bound lo,
// at a gallop probe, in the bisection after several gallop steps, and at
// hi = Σm without a feasible probe below it.
var matchingSeeds = map[string][]byte{
	// Four tasks that fit two per processor: feasible at lo = 10.
	"at lo": encodeHyper(2, repeatTask(4, seedConfig{5, []int{0}}, seedConfig{5, []int{1}})),
	// Five tasks pinned to processor 0 and one free task on 4
	// processors: lo = 15, the bound is 50, reached after galloping
	// through lo+32 and bisecting [48, 60].
	"gallop": encodeHyper(4, append(repeatTask(5, seedConfig{10, []int{0}}),
		[]seedConfig{{10, []int{1}}, {10, []int{2}}})),
	// Processor 0 carries 20 and processor 1 carries 12: lo = 16, and the
	// gallop probe at lo+4 is the first feasible one and the bound.
	"gallop hit": encodeHyper(2, [][]seedConfig{{{10, []int{0}}}, {{10, []int{0}}}, {{12, []int{1}}}}),
	// Every task pinned to processor 0: nothing below Σm = 60 is feasible.
	"at hi": encodeHyper(3, repeatTask(6, seedConfig{10, []int{0}})),
	// The cheap configuration is pinned; the spread one opens only at 40.
	"late config": encodeHyper(3, repeatTask(6, seedConfig{10, []int{0}}, seedConfig{40, []int{1, 2}})),
	// A multi-processor configuration loads both its processors.
	"wide": encodeHyper(4, repeatTask(5, seedConfig{7, []int{0, 1, 2}}, seedConfig{9, []int{1, 3}})),
}

// TestMatchingSeedsCoverSearch: the seed corpus reaches every exit of the
// search, so the fuzz target starts from each of them.
func TestMatchingSeedsCoverSearch(t *testing.T) {
	for name, want := range map[string]func(v, lo, sum int64) bool{
		"at lo":      func(v, lo, sum int64) bool { return v == lo && lo < sum },
		"gallop":     func(v, lo, sum int64) bool { return v > lo+16 && v < sum },
		"gallop hit": func(v, lo, sum int64) bool { return v == lo+4 },
		"at hi":      func(v, lo, sum int64) bool { return v == sum && lo < sum },
	} {
		h := decodeHyper(matchingSeeds[name])
		v := matchingHyperRef(h)
		lo, sum := cheapBound(h)
		if !want(v, lo, sum) {
			t.Errorf("seed %q: bound %d with lo %d and sum %d misses its case", name, v, lo, sum)
		}
	}
}

// FuzzMatchingHyper holds MatchingHyper to the fresh-network bisection
// on decoded hypergraphs.
func FuzzMatchingHyper(f *testing.F) {
	for _, seed := range matchingSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHyper(data)
		if got, want := MatchingHyper(h), matchingHyperRef(h); got != want {
			t.Fatalf("MatchingHyper = %d, reference %d (n=%d p=%d)", got, want, h.NTasks, h.NProcs)
		}
	})
}

// TestMatchingHyperEqualsReference runs the fuzz target's check on
// random hypergraphs, weighted and unit.
func TestMatchingHyperEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		n, p := 1+rng.Intn(24), 1+rng.Intn(10)
		wmax := int64(1 + rng.Intn(64))
		h := randHyperLB(rng, n, p, 1+rng.Intn(4), 1+rng.Intn(3), wmax)
		if got, want := MatchingHyper(h), matchingHyperRef(h); got != want {
			t.Fatalf("case %d: MatchingHyper = %d, reference %d (n=%d p=%d)", i, got, want, n, p)
		}
	}
}

// TestMatchingHyperAllocationBudget: the network is built once per call,
// so a bound found at lo (one probe) and one that needs many probes on
// the same topology allocate the same.
func TestMatchingHyperAllocationBudget(t *testing.T) {
	// Same topology: each task has a pinned configuration {0} and a
	// spread one {t mod 3}. With equal weights the bound is lo = 20; with
	// the spread configuration at 40 the bound is 40 ≥ lo+16, so the
	// probes at lo, lo+1, lo+2, lo+4 and lo+8 all fail first.
	build := func(spread int64) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder(6, 3)
		for task := 0; task < 6; task++ {
			b.AddEdge(task, []int{0}, 10)
			b.AddEdge(task, []int{task % 3}, spread)
		}
		return b.MustBuild()
	}
	one, many := build(10), build(40)
	if lo, _ := cheapBound(one); MatchingHyper(one) != lo {
		t.Fatalf("equal weights: bound %d, want lo %d", MatchingHyper(one), lo)
	}
	if lo, _ := cheapBound(many); MatchingHyper(many) < lo+16 {
		t.Fatalf("late spread configuration: bound %d, want ≥ lo+16 = %d", MatchingHyper(many), lo+16)
	}
	a1 := testing.AllocsPerRun(100, func() { MatchingHyper(one) })
	a2 := testing.AllocsPerRun(100, func() { MatchingHyper(many) })
	if a1 != a2 {
		t.Fatalf("allocations: %v with one probe, %v with many; the network must be built once", a1, a2)
	}
}

// matchingSink keeps the benchmarked call from being optimized away.
var matchingSink int64

// BenchmarkMatchingHyper runs the bound on session-shaped instances:
// 12–16 tasks on 4 processors, weights ≤ 30.
func BenchmarkMatchingHyper(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	hs := make([]*hypergraph.Hypergraph, 64)
	for i := range hs {
		hs[i] = randHyperLB(rng, 12+rng.Intn(5), 4, 3, 2, 30)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchingSink = MatchingHyper(hs[i%len(hs)])
	}
}
