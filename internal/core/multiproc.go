package core

import (
	"fmt"

	"semimatch/internal/hypergraph"
	"semimatch/internal/loadvec"
)

// HyperAssignment maps each task to the hyperedge (configuration) chosen
// for it — the semi-matching M in the hypergraph.
type HyperAssignment []int32

// HyperLoads returns per-processor loads under a: processor u carries
// Σ_{h ∈ M, u ∈ h} w_h.
func HyperLoads(h *hypergraph.Hypergraph, a HyperAssignment) []int64 {
	loads := make([]int64, h.NProcs)
	for t := 0; t < h.NTasks; t++ {
		e := a[t]
		if e == Unassigned {
			continue
		}
		w := h.Weight[e]
		for _, u := range h.EdgeProcs(e) {
			loads[u] += w
		}
	}
	return loads
}

// HyperMakespan returns max_u l(u) under a.
func HyperMakespan(h *hypergraph.Hypergraph, a HyperAssignment) int64 {
	max := int64(0)
	for _, l := range HyperLoads(h, a) {
		if l > max {
			max = l
		}
	}
	return max
}

// ValidateHyperAssignment checks that a picks exactly one hyperedge per
// task and that the hyperedge belongs to the task.
func ValidateHyperAssignment(h *hypergraph.Hypergraph, a HyperAssignment) error {
	if len(a) != h.NTasks {
		return fmt.Errorf("core: assignment has %d entries for %d tasks", len(a), h.NTasks)
	}
	for t := 0; t < h.NTasks; t++ {
		e := a[t]
		if e == Unassigned {
			return fmt.Errorf("core: task %d unassigned", t)
		}
		if e < 0 || int(e) >= h.NumEdges() {
			return fmt.Errorf("core: task %d assigned out-of-range hyperedge %d", t, e)
		}
		if h.Owner[e] != int32(t) {
			return fmt.Errorf("core: hyperedge %d belongs to task %d, not %d", e, h.Owner[e], t)
		}
	}
	return nil
}

// LowerBound computes LB of Eq. (1): each task in its globally cheapest
// configuration (minimizing w_h·|h∩V2|), total work spread perfectly over
// the p processors. Because integral weights make the optimal makespan
// integral, the bound is rounded up.
func LowerBound(h *hypergraph.Hypergraph) int64 {
	if h.NProcs == 0 {
		return 0
	}
	total := int64(0)
	for t := 0; t < h.NTasks; t++ {
		best := int64(-1)
		for _, e := range h.TaskEdges(t) {
			c := h.Weight[e] * int64(h.EdgeSize(e))
			if best < 0 || c < best {
				best = c
			}
		}
		if best > 0 {
			total += best
		}
	}
	p := int64(h.NProcs)
	return (total + p - 1) / p
}

// hyperTaskOrder returns task indices by non-decreasing configuration
// count, ties by index: a stable counting sort on degree, O(n + max
// degree).
func hyperTaskOrder(h *hypergraph.Hypergraph) []int32 {
	maxDeg := 0
	for t := 0; t < h.NTasks; t++ {
		maxDeg = max(maxDeg, h.TaskDegree(t))
	}
	// next[d] is the first free slot of degree d once the counts are
	// turned into prefix sums. Degrees are small, so it fits on the stack.
	var small [16]int
	next := small[:]
	if maxDeg+2 > len(small) {
		next = make([]int, maxDeg+2)
	}
	next = next[:maxDeg+2]
	for t := 0; t < h.NTasks; t++ {
		next[h.TaskDegree(t)+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	order := make([]int32, h.NTasks)
	for t := 0; t < h.NTasks; t++ {
		d := h.TaskDegree(t)
		order[next[d]] = int32(t)
		next[d]++
	}
	return order
}

// SortedGreedyHyp is Algorithm 4 (SGH): tasks by non-decreasing degree;
// each picks the hyperedge minimizing the maximum current load over its
// processors, ties to the task's first hyperedge. A task without
// hyperedges stays Unassigned. O(Σ_h |h|) after sorting.
func SortedGreedyHyp(h *hypergraph.Hypergraph) HyperAssignment {
	a := make(HyperAssignment, h.NTasks)
	loads := make([]int64, h.NProcs)
	for _, t := range hyperTaskOrder(h) {
		bestE := Unassigned
		var bestKey int64
		for _, e := range h.TaskEdges(int(t)) {
			key := int64(0)
			for _, u := range h.EdgeProcs(e) {
				if loads[u] > key {
					key = loads[u]
				}
			}
			if bestE == Unassigned || key < bestKey {
				bestE, bestKey = e, key
			}
		}
		a[t] = bestE
		if bestE == Unassigned {
			continue // no configuration: the task stays unassigned
		}
		w := h.Weight[bestE]
		for _, u := range h.EdgeProcs(bestE) {
			loads[u] += w
		}
	}
	return a
}

// ExpectedGreedyHyp is Algorithm 5 (EGH): like SGH but driven by expected
// loads o(u); every hyperedge h of a task v initially contributes w_h/d_v
// to each of its processors. Choosing h collapses the distribution.
// O(Σ_h |h|) because updates touch each hyperedge a constant number of
// times.
func ExpectedGreedyHyp(h *hypergraph.Hypergraph) HyperAssignment {
	a := make(HyperAssignment, h.NTasks)
	o := initExpected(h)
	for _, t := range hyperTaskOrder(h) {
		bestE := Unassigned
		bestKey := 0.0
		for _, e := range h.TaskEdges(int(t)) {
			key := 0.0
			for _, u := range h.EdgeProcs(e) {
				if o[u] > key {
					key = o[u]
				}
			}
			if bestE == Unassigned || key < bestKey {
				bestE, bestKey = e, key
			}
		}
		a[t] = bestE
		commitExpected(h, int(t), bestE, o)
	}
	return a
}

// initExpected computes o(u) = Σ_{h ∋ u} w_h/d_{owner(h)}.
func initExpected(h *hypergraph.Hypergraph) []float64 {
	o := make([]float64, h.NProcs)
	for t := 0; t < h.NTasks; t++ {
		d := float64(h.TaskDegree(t))
		for _, e := range h.TaskEdges(t) {
			share := float64(h.Weight[e]) / d
			for _, u := range h.EdgeProcs(e) {
				o[u] += share
			}
		}
	}
	return o
}

// commitExpected realizes hyperedge chosen for task t in the expected-load
// vector: its processors gain w−w/d, all other configurations' processors
// lose their w'/d share (Algorithm 5, lines 10–14).
//
// The arithmetic is performed in a canonical order — first remove every
// configuration's share in task-edge order, then add the full weight of the
// chosen hyperedge — so that the naive and the fast vector implementations
// produce bit-identical floating-point values and therefore identical
// assignments even on ties.
func commitExpected(h *hypergraph.Hypergraph, t int, chosen int32, o []float64) {
	d := float64(h.TaskDegree(t))
	for _, e := range h.TaskEdges(t) {
		share := float64(h.Weight[e]) / d
		for _, u := range h.EdgeProcs(e) {
			o[u] -= share
		}
	}
	w := float64(h.Weight[chosen])
	for _, u := range h.EdgeProcs(chosen) {
		o[u] += w
	}
}

// VectorGreedyHyp (VGH, Sec. IV-D3) selects, for each task in degree order,
// the hyperedge whose assignment yields the lexicographically smallest
// descending load vector: smallest maximum load, ties by second-largest,
// and so on.
//
// The paper's variant copies and sorts the full vector per candidate
// (O(Σ_v d_v · p log p)); the tests keep it as the reference. Here each
// candidate is compared with the best so far on the k processors the two
// touch (loadvec.Comparer; O(Σ_v d_v · k²) at worst, with k at most twice
// the largest configuration), and committing the choice adds its weight
// to its processors' loads; no step costs O(p).
func VectorGreedyHyp(h *hypergraph.Hypergraph) HyperAssignment {
	a := make(HyperAssignment, h.NTasks)
	loads := make([]int64, h.NProcs)
	var c loadvec.Comparer[int64]
	for _, t := range hyperTaskOrder(h) {
		bestE := Unassigned
		for _, e := range h.TaskEdges(int(t)) {
			if bestE == Unassigned || c.Compare(loads, h.EdgeProcs(e), h.Weight[e], h.EdgeProcs(bestE), h.Weight[bestE]) < 0 {
				bestE = e
			}
		}
		a[t] = bestE
		if bestE != Unassigned {
			w := h.Weight[bestE]
			for _, u := range h.EdgeProcs(bestE) {
				loads[u] += w
			}
		}
	}
	return a
}

// ExpectedVectorGreedyHyp (EVG, Sec. IV-D4) combines the expected and
// vector strategies: for each candidate hyperedge the task's whole
// probability mass is tentatively collapsed onto it, and the resulting
// expected-load vectors are compared lexicographically.
func ExpectedVectorGreedyHyp(h *hypergraph.Hypergraph) HyperAssignment {
	return expectedVector(h, initExpected(h),
		func(e int32) float64 { return float64(h.Weight[e]) / float64(h.TaskDegree(int(h.Owner[e]))) },
		func(e int32) float64 { return float64(h.Weight[e]) })
}

// expectedVector is the fast EVG over the expected loads o, for float64
// (EVG) and scaled-integer (EVG-X) loads: share(e) is what hyperedge e
// adds to each of its processors while its task is undecided, full(e)
// what it adds once chosen. Each task first takes every share out of o in
// place, in commitExpected's order; its candidates then differ only in
// which configuration's processors gain full(e), so they are compared on
// those processors, and the choice is committed by adding its full
// weight. The loads, o[u] − shares + w, are bit-identical to the naive
// variant's.
func expectedVector[T loadvec.Value](h *hypergraph.Hypergraph, o []T, share, full func(e int32) T) HyperAssignment {
	a := make(HyperAssignment, h.NTasks)
	var c loadvec.Comparer[T]
	for _, t := range hyperTaskOrder(h) {
		edges := h.TaskEdges(int(t))
		for _, e := range edges {
			s := share(e)
			for _, u := range h.EdgeProcs(e) {
				o[u] -= s
			}
		}
		bestE := Unassigned
		var bestW T
		for _, e := range edges {
			if w := full(e); bestE == Unassigned || c.Compare(o, h.EdgeProcs(e), w, h.EdgeProcs(bestE), bestW) < 0 {
				bestE, bestW = e, w
			}
		}
		a[t] = bestE
		if bestE != Unassigned {
			for _, u := range h.EdgeProcs(bestE) {
				o[u] += bestW
			}
		}
	}
	return a
}
