package core

import (
	"fmt"

	"semimatch/internal/hypergraph"
)

// The expected-load heuristics carry values o(u) that are sums of
// rationals w_h/d_v. The float64 implementations can, in principle, decide
// ties differently than exact arithmetic would (two mathematically equal
// o(u) values may compare unequal after rounding). The *Exact variants
// below run the same algorithms over scaled integers: every share is
// multiplied by D = lcm of all task degrees, making w_h·D/d_v exact. They
// exist as an ablation — to quantify whether floating-point tie noise ever
// changes schedules — and as a reference for the float versions.

// lcmDegrees returns the least common multiple of all task degrees, or an
// error if it (or the worst-case scaled load) would overflow int64.
func lcmDegrees(h *hypergraph.Hypergraph) (int64, error) {
	d := int64(1)
	for t := 0; t < h.NTasks; t++ {
		d = lcm(d, int64(h.TaskDegree(t)))
		if d > 1<<40 {
			return 0, fmt.Errorf("core: degree lcm %d too large for exact arithmetic", d)
		}
	}
	// Worst-case scaled load: Σ over all hyperedges of w_h·D must fit
	// comfortably (a single processor could in principle see every edge).
	total := int64(0)
	for _, w := range h.Weight {
		total += w
		if total > (1<<62)/d {
			return 0, fmt.Errorf("core: scaled loads would overflow int64 (lcm %d)", d)
		}
	}
	return d, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 { return a / gcd(a, b) * b }

// initExpectedScaled computes o(u)·D exactly in integers.
func initExpectedScaled(h *hypergraph.Hypergraph, d int64) []int64 {
	o := make([]int64, h.NProcs)
	for t := 0; t < h.NTasks; t++ {
		share := d / int64(h.TaskDegree(t)) // exact by construction of D
		for _, e := range h.TaskEdges(t) {
			add := h.Weight[e] * share
			for _, u := range h.EdgeProcs(e) {
				o[u] += add
			}
		}
	}
	return o
}

// commitExpectedScaled is commitExpected over scaled integers.
func commitExpectedScaled(h *hypergraph.Hypergraph, t int, chosen int32, o []int64, d int64) {
	share := d / int64(h.TaskDegree(t))
	for _, e := range h.TaskEdges(t) {
		dec := h.Weight[e] * share
		for _, u := range h.EdgeProcs(e) {
			o[u] -= dec
		}
	}
	w := h.Weight[chosen] * d
	for _, u := range h.EdgeProcs(chosen) {
		o[u] += w
	}
}

// ExpectedGreedyHypExact is ExpectedGreedyHyp with exact scaled-integer
// expected loads.
func ExpectedGreedyHypExact(h *hypergraph.Hypergraph) (HyperAssignment, error) {
	d, err := lcmDegrees(h)
	if err != nil {
		return nil, err
	}
	a := make(HyperAssignment, h.NTasks)
	o := initExpectedScaled(h, d)
	for _, t := range hyperTaskOrder(h) {
		bestE := Unassigned
		var bestKey int64
		for _, e := range h.TaskEdges(int(t)) {
			key := int64(0)
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
		commitExpectedScaled(h, int(t), bestE, o, d)
	}
	return a, nil
}

// ExpectedVectorGreedyHypExact is ExpectedVectorGreedyHyp with exact
// scaled-integer expected loads, through the same touched-processor
// comparison (tests hold it to a copy-and-sort reference over the same
// scaled integers).
func ExpectedVectorGreedyHypExact(h *hypergraph.Hypergraph) (HyperAssignment, error) {
	d, err := lcmDegrees(h)
	if err != nil {
		return nil, err
	}
	return expectedVector(h, initExpectedScaled(h, d),
		func(e int32) int64 { return h.Weight[e] * (d / int64(h.TaskDegree(int(h.Owner[e])))) },
		func(e int32) int64 { return h.Weight[e] * d }), nil
}
