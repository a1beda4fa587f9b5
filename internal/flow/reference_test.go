package flow

import (
	"fmt"

	"semimatch/internal/bipartite"
)

// The flow-based SINGLEPROC-UNIT solver, a reference the tests hold
// core.ExactUnit to.

// MatchingNetwork builds the flow network of a SINGLEPROC-UNIT deadline
// probe: source → each task (cap 1) → eligible processors (cap 1) → sink
// (cap d). It returns the network, the source and sink ids, and the arc
// index of each task→processor edge in CSR order (parallel to g.Adj).
func MatchingNetwork(g *bipartite.Graph, d int64) (net *Network, s, t int, edgeArcs []int) {
	n, p := g.NLeft, g.NRight
	net = NewNetwork(n + p + 2)
	s = n + p
	t = n + p + 1
	for task := 0; task < n; task++ {
		net.AddArc(s, task, 1)
	}
	edgeArcs = make([]int, g.NumEdges())
	for task := 0; task < n; task++ {
		for k := g.Ptr[task]; k < g.Ptr[task+1]; k++ {
			edgeArcs[k] = net.AddArc(task, n+int(g.Adj[k]), 1)
		}
	}
	for proc := 0; proc < p; proc++ {
		net.AddArc(n+proc, t, d)
	}
	return net, s, t, edgeArcs
}

// FeasibleDeadline reports whether every task of the unit instance can be
// scheduled with makespan at most d, and if so returns the assignment
// extracted from the flow.
func FeasibleDeadline(g *bipartite.Graph, d int64) ([]int32, bool) {
	net, s, t, edgeArcs := MatchingNetwork(g, d)
	if net.MaxFlow(s, t) != int64(g.NLeft) {
		return nil, false
	}
	assign := make([]int32, g.NLeft)
	for i := range assign {
		assign[i] = -1
	}
	for task := 0; task < g.NLeft; task++ {
		for k := g.Ptr[task]; k < g.Ptr[task+1]; k++ {
			if net.Flow(edgeArcs[k]) > 0 {
				assign[task] = g.Adj[k]
				break
			}
		}
	}
	return assign, true
}

// ExactUnitViaFlow solves SINGLEPROC-UNIT by bisection over the deadline
// with the flow oracle — an independent implementation used to cross-check
// core.ExactUnit.
func ExactUnitViaFlow(g *bipartite.Graph) ([]int32, int64, error) {
	if !g.Unit() {
		return nil, 0, fmt.Errorf("flow: unit graphs only")
	}
	for task := 0; task < g.NLeft; task++ {
		if g.Degree(task) == 0 {
			return nil, 0, fmt.Errorf("flow: task %d has no eligible processor", task)
		}
	}
	if g.NLeft == 0 {
		return []int32{}, 0, nil
	}
	lo := int64((g.NLeft + g.NRight - 1) / g.NRight)
	if lo < 1 {
		lo = 1
	}
	hi := int64(g.NLeft)
	var best []int32
	bestD := hi
	for lo < hi {
		mid := (lo + hi) / 2
		if a, ok := FeasibleDeadline(g, mid); ok {
			best, bestD = a, mid
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if best == nil || bestD != lo {
		a, ok := FeasibleDeadline(g, lo)
		if !ok {
			return nil, 0, fmt.Errorf("flow: internal error, lost feasibility at %d", lo)
		}
		best, bestD = a, lo
	}
	return best, bestD, nil
}
