// Package lb provides the stronger instance-level lower bounds behind the
// flat-core branch-and-bound engine (and behind cert's re-derivable
// optimality witnesses): a bin-packing bound for identical-machines
// relaxations and a matching/max-flow feasibility bound for eligibility
// structure.
//
// Both bounds dominate the two classic cheap bounds (average load and
// max element) on their home turf and are polynomial to re-derive, so a
// search that closes its gap with one of them yields a certificate that
// cert.Verify can re-prove locally (TierVerified) instead of merely
// attesting exhaustion.
//
// # The identical-machines relaxation
//
// Every instance relaxes to P||Cmax: give task t an indivisible item of
// size m_t — its cheapest configuration weight — and let all p
// processors accept every item. Any feasible schedule places, for each
// task, at least m_t on some single processor, so the relaxed optimum
// lower-bounds the true one. Packing computes a lower bound for the
// relaxation:
//
//   - L1: max(⌈Σm/p⌉, max m) — the two classic bounds;
//   - k-tuple: among the (k-1)·p+1 largest items, k must share a
//     processor, so the k smallest of them bound the makespan;
//   - the Martello–Toth dual: capacity C is infeasible if the L2
//     bin-packing bound at capacity C needs more than p bins; the
//     smallest not-provably-infeasible C is a valid makespan bound.
//
// # The matching/flow relaxation
//
// The bipartite-matching view of SINGLEPROC (the paper's Theorem 1
// machinery): makespan ≤ T is only possible if each task can route m_t
// units of flow to some processor of one of its configurations of weight
// ≤ T, with every processor absorbing at most T in total. Infeasibility
// of that flow for a given T proves OPT > T, and MatchingHyper searches
// for the smallest feasible T. It builds one network per call, holding
// every task→processor arc with the weight of the configuration it came
// from; a probe at T re-caps that network (source arcs m_t, task arcs
// m_t if their configuration weighs ≤ T and 0 otherwise, sink arcs T)
// instead of building a new one. Most instances are feasible at the
// cheap bound max(⌈Σm/p⌉, max m), so the search probes it first, then
// gallops upward and bisects the bracket. Feasibility is monotone in T,
// so the value equals a plain bisection over [cheap bound, Σm]. For unit
// SINGLEPROC instances the relaxation is exact (it is the
// replicated-matching feasibility oracle), and in general it dominates
// both the average-load and max-element bounds while seeing eligibility
// structure neither can.
//
// # One encoding
//
// Both bounds take the MULTIPROC form only. A SINGLEPROC instance is
// bounded as its singleton-hyperedge lift, hypergraph.FromGraph (the
// paper's Sec. II-B reduction): edge (t, u) of weight w becomes the
// one-processor configuration {u} of weight w, so the relaxations, and
// the bounds, are the same.
package lb

import (
	"cmp"
	"slices"
	"sort"

	"semimatch/internal/flow"
	"semimatch/internal/hypergraph"
)

// packScanCap bounds the upward capacity scan of the Martello–Toth dual
// in Packing. Stopping the scan early only weakens the bound (each
// rejected capacity is a proof), never invalidates it.
const packScanCap = 4096

// MinPlacementsHyper returns m_t per task: the cheapest hyperedge weight
// among each task's configurations. Whatever configuration a task picks,
// every processor in it absorbs the full edge weight, so m_t lands whole
// on at least one processor.
func MinPlacementsHyper(h *hypergraph.Hypergraph) []int64 {
	m := make([]int64, h.NTasks)
	for t := 0; t < h.NTasks; t++ {
		best := int64(-1)
		for _, e := range h.TaskEdges(t) {
			if w := h.Weight[e]; best < 0 || w < best {
				best = w
			}
		}
		if best < 0 {
			best = 0
		}
		m[t] = best
	}
	return m
}

// Packing returns a lower bound on the optimal makespan of scheduling
// one indivisible item per task on p identical machines. It is a valid
// lower bound for any SINGLEPROC/MULTIPROC instance when items are the
// cheapest-placement weights (see the package comment). items is not
// modified.
func Packing(items []int64, p int) int64 {
	n := len(items)
	if n == 0 || p <= 0 {
		return 0
	}
	s := append([]int64(nil), items...)
	slices.SortFunc(s, func(a, b int64) int { return cmp.Compare(b, a) }) // descending
	var sum int64
	for _, x := range s {
		sum += x
	}
	if p == 1 {
		return sum
	}
	bound := (sum + int64(p) - 1) / int64(p)
	if s[0] > bound {
		bound = s[0]
	}
	// k-tuple bounds: among the (k-1)p+1 largest items, k share a machine;
	// the cheapest way to share is the k smallest of them.
	for k := 2; (k-1)*p+1 <= n; k++ {
		top := (k - 1) * p // items s[0..top] are the (k-1)p+1 largest
		var t int64
		for i := top - k + 1; i <= top; i++ {
			t += s[i]
		}
		if t > bound {
			bound = t
		}
	}
	// Martello–Toth dual: walk capacities upward from the bound so far,
	// rejecting each capacity the L2 bin-packing bound proves needs more
	// than p bins. pre[i] = Σ s[0:i] (descending prefix sums).
	pre := make([]int64, n+1)
	for i, x := range s {
		pre[i+1] = pre[i] + x
	}
	needsMoreBins := func(C, alpha int64) bool {
		// J1 = items > C-α (own bin, no J3 item fits beside them),
		// J2 = items in (C/2, C-α] (own bin, residual C-x free),
		// J3 = items in [α, C/2] (fill J2 residuals, then new bins).
		i1 := sort.Search(n, func(i int) bool { return s[i] <= C-alpha })
		i2 := sort.Search(n, func(i int) bool { return 2*s[i] <= C })
		if i2 < i1 {
			i2 = i1
		}
		i3 := sort.Search(n, func(i int) bool { return s[i] < alpha })
		if i3 < i2 {
			i3 = i2
		}
		n2 := int64(i2 - i1)
		s2 := pre[i2] - pre[i1]
		s3 := pre[i3] - pre[i2]
		need := int64(i1) + n2
		if free := n2*C - s2; s3 > free {
			need += (s3 - free + C - 1) / C
		}
		return need > int64(p)
	}
	infeasible := func(C int64) bool {
		if needsMoreBins(C, 0) {
			return true
		}
		// Candidate thresholds: the distinct item sizes ≤ C/2, walked
		// ascending so the break on 2x > C ends the scan.
		for i := n - 1; i >= 0; i-- {
			x := s[i]
			if 2*x > C {
				break
			}
			if i < n-1 && s[i+1] == x {
				continue
			}
			if needsMoreBins(C, x) {
				return true
			}
		}
		return false
	}
	for iter := 0; iter < packScanCap && infeasible(bound); iter++ {
		bound++
	}
	return bound
}

// MatchingHyper returns the matching/flow lower bound of a MULTIPROC
// instance: task t must route m_t (its cheapest configuration weight) to
// some processor appearing in a configuration of weight ≤ T, and every
// processor absorbs at most T. Valid because the chosen configuration
// loads its full weight onto each of its processors. The value is the
// smallest feasible T in [lo, Σm), or Σm when none is, where lo is the
// cheap bound; every probe of the search re-caps one network (see the
// package comment).
func MatchingHyper(h *hypergraph.Hypergraph) int64 {
	n, p := h.NTasks, h.NProcs
	if n == 0 || p == 0 {
		return 0
	}
	m := MinPlacementsHyper(h)
	var sum, maxElem int64
	for _, x := range m {
		sum += x
		if x > maxElem {
			maxElem = x
		}
	}
	lo := (sum + int64(p) - 1) / int64(p)
	if maxElem > lo {
		lo = maxElem
	}
	hi := sum
	if lo >= hi {
		return lo
	}

	// arcs holds the source and task arcs. At deadline T an arc carries
	// its capacity when its configuration weight is ≤ T and 0 otherwise;
	// a source arc has weight 0, so it is always open.
	type cappedArc struct {
		k           int
		cap, weight int64
	}
	nArcs := 0
	for task := 0; task < n; task++ {
		if m[task] != 0 {
			nArcs++
			for _, e := range h.TaskEdges(task) {
				nArcs += h.EdgeSize(e)
			}
		}
	}
	net := flow.NewNetwork(n + p + 2)
	s, t := n+p, n+p+1
	arcs := make([]cappedArc, 0, nArcs)
	var want int64
	for task := 0; task < n; task++ {
		if m[task] == 0 {
			continue
		}
		arcs = append(arcs, cappedArc{net.AddArc(s, task, m[task]), m[task], 0})
		want += m[task]
		for _, e := range h.TaskEdges(task) {
			for _, u := range h.EdgeProcs(e) {
				// Duplicate arcs are harmless: the source arc caps the
				// task's total outflow at m[task].
				arcs = append(arcs, cappedArc{net.AddArc(task, n+int(u), m[task]), m[task], h.Weight[e]})
			}
		}
	}
	sinks := make([]int, p)
	for proc := range sinks {
		sinks[proc] = net.AddArc(n+proc, t, 0)
	}
	feasible := func(T int64) bool {
		for _, a := range arcs {
			c := int64(0)
			if a.weight <= T {
				c = a.cap
			}
			net.SetCap(a.k, c)
		}
		for _, k := range sinks {
			net.SetCap(k, T)
		}
		return net.MaxFlow(s, t) == want
	}

	if feasible(lo) {
		return lo
	}
	// Gallop to lo+1, lo+2, lo+4, … while below hi; the first feasible
	// probe becomes hi, and every failed one is a new infeasible floor.
	bad := lo
	for step := int64(1); lo+step < hi; step *= 2 {
		if feasible(lo + step) {
			hi = lo + step
			break
		}
		bad = lo + step
	}
	for lo = bad + 1; lo < hi; {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
