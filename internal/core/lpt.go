package core

import (
	"sort"

	"semimatch/internal/bipartite"
)

// Weighted SINGLEPROC is NP-complete (Low, IPL 2006 [24]), and the paper's
// greedy heuristics sort by task *degree* because its instances are unit.
// For weighted instances the classical signal is the task's processing
// time: LPT (longest processing time first) is Graham's 4/3-approximation
// on identical machines and degrades gracefully under eligibility
// constraints. LPTGreedy orders tasks by non-increasing weight (ties:
// smaller degree first, then index) and assigns each to the eligible
// processor minimizing the post-assignment load — an extension baseline
// beyond the paper, compared with the degree-order greedies in
// lpt_test.go.

// taskWeight returns the representative weight of task t: its minimum
// edge weight (1 for unit graphs). The minimum is the intrinsic size of
// the task — any assignment costs at least this much.
func taskWeight(g *bipartite.Graph, t int) int64 {
	w := g.Weights(t)
	if w == nil {
		return 1
	}
	min := w[0]
	for _, x := range w[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// LPTGreedy assigns tasks in LPT order (largest weight first) to the
// eligible processor with the smallest load after the assignment.
// O(|E| + |V1| log |V1|).
func LPTGreedy(g *bipartite.Graph) Assignment {
	order := make([]int32, g.NLeft)
	weights := make([]int64, g.NLeft)
	for i := range order {
		order[i] = int32(i)
		weights[i] = taskWeight(g, i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		wi, wj := weights[order[i]], weights[order[j]]
		if wi != wj {
			return wi > wj
		}
		return g.Degree(int(order[i])) < g.Degree(int(order[j]))
	})
	a := make(Assignment, g.NLeft)
	for i := range a {
		a[i] = Unassigned
	}
	loads := make([]int64, g.NRight)
	for _, t := range order {
		a[t] = pickMinPostLoad(g, int(t), loads)
	}
	return a
}

// pickMinPostLoad assigns task t to the eligible processor with the
// smallest load after the assignment, l(u)+w: with heterogeneous weights
// the post-assignment load is the meaningful key (LPT semantics). It
// updates loads and returns the processor (Unassigned for isolated
// tasks); ties break toward the first edge in row order.
func pickMinPostLoad(g *bipartite.Graph, t int, loads []int64) int32 {
	row := g.Neighbors(t)
	if len(row) == 0 {
		return Unassigned
	}
	best, bestKey := -1, int64(0)
	for i, p := range row {
		if key := loads[p] + edgeWeightAt(g, t, i); best == -1 || key < bestKey {
			best, bestKey = i, key
		}
	}
	p := row[best]
	loads[p] += edgeWeightAt(g, t, best)
	return p
}

// LowerBoundSingle is the weighted SINGLEPROC analogue of Eq. (1): the
// larger of the average-load bound ⌈Σ min-weights / p⌉ and the largest
// single task weight (some processor must run that task in full).
func LowerBoundSingle(g *bipartite.Graph) int64 {
	if g.NRight == 0 || g.NLeft == 0 {
		return 0
	}
	total := int64(0)
	maxW := int64(0)
	for t := 0; t < g.NLeft; t++ {
		w := taskWeight(g, t)
		total += w
		if w > maxW {
			maxW = w
		}
	}
	p := int64(g.NRight)
	lb := (total + p - 1) / p
	if maxW > lb {
		lb = maxW
	}
	return lb
}
