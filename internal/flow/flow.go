// Package flow implements Dinic's maximum-flow algorithm on unit-ish
// integer-capacity networks. Bipartite matching — the engine of the exact
// SINGLEPROC-UNIT algorithm — is the classic special case of max flow:
// "can all n tasks be scheduled with deadline D?" is exactly "does the
// network source→tasks→processors→sink with processor capacity D carry
// flow n?". The tests keep that flow-based solver as a reference for
// core.ExactUnit.
//
// The implementation is a standard adjacency-array Dinic: BFS level graph,
// blocking-flow DFS with iteration pointers, O(E·√V) on unit networks.
// A Network keeps Dinic's scratch between MaxFlow calls, and SetCap
// re-caps an arc and clears its flow, so a caller that probes many
// deadlines over one topology (lb.MatchingHyper's search) builds the
// network once and re-solves it under new capacities without allocating.
package flow

import "fmt"

// Network is a directed graph with integer arc capacities supporting
// residual updates. Arcs are stored in pairs: arc k and k^1 are mutual
// reverses.
type Network struct {
	n    int
	head [][]int32 // head[v] = arc indices out of v
	to   []int32
	cap  []int64
	// Dinic scratch, allocated by the first MaxFlow and reused after.
	level []int32
	iter  []int
	queue []int32
}

// NewNetwork returns an empty network with n vertices.
func NewNetwork(n int) *Network {
	return &Network{n: n, head: make([][]int32, n)}
}

// AddArc adds a directed arc u→v with the given capacity (and its zero-
// capacity reverse), returning the arc index for flow queries.
func (g *Network) AddArc(u, v int, capacity int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("flow: arc (%d,%d) out of range", u, v))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	k := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.head[u] = append(g.head[u], int32(k))
	g.head[v] = append(g.head[v], int32(k+1))
	return k
}

// Flow returns the flow currently carried by arc k (that is, the capacity
// moved onto its reverse).
func (g *Network) Flow(k int) int64 { return g.cap[k^1] }

// SetCap sets the capacity of arc k (an index AddArc returned) to c and
// clears the flow it carries. Re-capping every arc returns the network to
// a flow-free state under the new capacities, so one network can be
// solved again for another deadline without being rebuilt.
func (g *Network) SetCap(k int, c int64) {
	if c < 0 {
		panic("flow: negative capacity")
	}
	g.cap[k] = c
	g.cap[k^1] = 0
}

// MaxFlow runs Dinic from s to t and returns the total flow. The network
// retains the residual state, so Flow(k) reports per-arc flows afterwards.
// The level, iterator and queue scratch is kept between calls, so solving
// a re-capped network again allocates nothing.
func (g *Network) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	if g.level == nil {
		g.level = make([]int32, g.n)
		g.iter = make([]int, g.n)
		g.queue = make([]int32, 0, g.n)
	}
	const inf = int64(1) << 62
	total := int64(0)
	for g.bfs(s, t) {
		clear(g.iter)
		for {
			f := g.dfs(int32(s), int32(t), inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

// bfs builds the level graph of the residual network and reports whether
// t is reachable from s.
func (g *Network) bfs(s, t int) bool {
	level := g.level
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := append(g.queue[:0], int32(s))
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, k := range g.head[v] {
			if g.cap[k] > 0 && level[g.to[k]] < 0 {
				level[g.to[k]] = level[v] + 1
				queue = append(queue, g.to[k])
			}
		}
	}
	g.queue = queue
	return level[t] >= 0
}

// dfs pushes one augmenting path of at most f units from v to t along the
// level graph, advancing the iteration pointers past saturated arcs.
func (g *Network) dfs(v, t int32, f int64) int64 {
	if v == t {
		return f
	}
	for ; g.iter[v] < len(g.head[v]); g.iter[v]++ {
		k := g.head[v][g.iter[v]]
		w := g.to[k]
		if g.cap[k] <= 0 || g.level[w] != g.level[v]+1 {
			continue
		}
		got := g.dfs(w, t, min(f, g.cap[k]))
		if got > 0 {
			g.cap[k] -= got
			g.cap[k^1] += got
			return got
		}
	}
	return 0
}
