// Package bipartite provides a compact CSR (compressed sparse row)
// representation of bipartite graphs G = (V1 ∪ V2, E) as used by the
// SINGLEPROC scheduling problem: V1 is the set of tasks, V2 the set of
// processors, and an edge (t, p) means task t may execute on processor p.
//
// The representation is adjacency of the left side (tasks). The transpose
// (processor → tasks) can be built on demand with Reverse. Optional integer
// edge weights model execution times for the weighted SINGLEPROC problem.
//
// Vertices are 0-based. Indices are stored as int32: instances in the paper
// reach ~10^6 edges and int32 halves the memory traffic of int64 on the hot
// CSR arrays, which matters for the matching and greedy kernels.
package bipartite

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an immutable bipartite graph in CSR form over the left side.
// Use a Builder to construct one, or NewFromAdjacency for tests.
//
// The adjacency of left vertex u is Adj[Ptr[u]:Ptr[u+1]]. If W is non-nil it
// runs parallel to Adj and W[k] is the weight of the edge Adj[k]; a nil W
// means the graph is unit-weighted (SINGLEPROC-UNIT).
type Graph struct {
	NLeft  int     // |V1|, number of tasks
	NRight int     // |V2|, number of processors
	Ptr    []int32 // len NLeft+1, CSR row pointers
	Adj    []int32 // right endpoints, len = number of edges
	W      []int64 // optional edge weights, nil for unit weights
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.Adj) }

// Unit reports whether the graph carries unit edge weights.
func (g *Graph) Unit() bool { return g.W == nil }

// Degree returns the out-degree (number of eligible processors) of left
// vertex u.
func (g *Graph) Degree(u int) int { return int(g.Ptr[u+1] - g.Ptr[u]) }

// Neighbors returns the adjacency slice of left vertex u. The slice aliases
// the graph's storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 { return g.Adj[g.Ptr[u]:g.Ptr[u+1]] }

// Weights returns the weight slice of left vertex u, parallel to
// Neighbors(u), or nil for unit-weighted graphs.
func (g *Graph) Weights(u int) []int64 {
	if g.W == nil {
		return nil
	}
	return g.W[g.Ptr[u]:g.Ptr[u+1]]
}

// EdgeWeight returns the weight of the k-th edge (global edge index), which
// is 1 for unit-weighted graphs.
func (g *Graph) EdgeWeight(k int32) int64 {
	if g.W == nil {
		return 1
	}
	return g.W[k]
}

// RightDegrees returns the in-degree of every right vertex.
func (g *Graph) RightDegrees() []int32 {
	deg := make([]int32, g.NRight)
	for _, v := range g.Adj {
		deg[v]++
	}
	return deg
}

// Validate checks structural invariants: monotone Ptr, endpoints in range,
// weight slice length, and (per simple-graph contract) no duplicate edge
// within a row. It is O(|E|) plus a per-row duplicate check.
func (g *Graph) Validate() error {
	if g.NLeft < 0 || g.NRight < 0 {
		return errors.New("bipartite: negative vertex count")
	}
	if len(g.Ptr) != g.NLeft+1 {
		return fmt.Errorf("bipartite: len(Ptr)=%d, want %d", len(g.Ptr), g.NLeft+1)
	}
	if g.Ptr[0] != 0 {
		return errors.New("bipartite: Ptr[0] != 0")
	}
	for u := 0; u < g.NLeft; u++ {
		if g.Ptr[u+1] < g.Ptr[u] {
			return fmt.Errorf("bipartite: Ptr not monotone at row %d", u)
		}
	}
	if int(g.Ptr[g.NLeft]) != len(g.Adj) {
		return fmt.Errorf("bipartite: Ptr[n]=%d, want len(Adj)=%d", g.Ptr[g.NLeft], len(g.Adj))
	}
	if g.W != nil && len(g.W) != len(g.Adj) {
		return fmt.Errorf("bipartite: len(W)=%d, want %d", len(g.W), len(g.Adj))
	}
	seen := make(map[int32]struct{})
	for u := 0; u < g.NLeft; u++ {
		row := g.Neighbors(u)
		clear(seen)
		for _, v := range row {
			if v < 0 || int(v) >= g.NRight {
				return fmt.Errorf("bipartite: edge (%d,%d) out of range", u, v)
			}
			if _, dup := seen[v]; dup {
				return fmt.Errorf("bipartite: duplicate edge (%d,%d)", u, v)
			}
			seen[v] = struct{}{}
		}
	}
	if g.W != nil {
		for k, w := range g.W {
			if w <= 0 {
				return fmt.Errorf("bipartite: non-positive weight %d on edge %d", w, k)
			}
		}
	}
	return nil
}

// ReplicateRight returns the graph G_D of the exact SINGLEPROC-UNIT
// algorithm (Sec. IV-A of the paper): each right vertex u is replaced by d
// copies u_0..u_{d-1}, each inheriting u's full neighborhood. Copy i of
// right vertex v has index v*d + i. Weights are dropped (the construction is
// only meaningful for the unit problem). core.ExactUnit matches with
// capacity d instead; the tests' copy of the paper's literal algorithm
// builds G_D with this.
func (g *Graph) ReplicateRight(d int) *Graph {
	if d < 1 {
		panic("bipartite: ReplicateRight requires d >= 1")
	}
	ptr := make([]int32, g.NLeft+1)
	adj := make([]int32, len(g.Adj)*d)
	pos := int32(0)
	for u := 0; u < g.NLeft; u++ {
		ptr[u] = pos
		for _, v := range g.Neighbors(u) {
			base := v * int32(d)
			for i := 0; i < d; i++ {
				adj[pos] = base + int32(i)
				pos++
			}
		}
	}
	ptr[g.NLeft] = pos
	return &Graph{NLeft: g.NLeft, NRight: g.NRight * d, Ptr: ptr, Adj: adj}
}

// SortRows sorts each adjacency row (and its weights) by right endpoint.
// Deterministic algorithms in this module assume sorted rows so that
// tie-breaking by "first edge found" is reproducible.
func (g *Graph) SortRows() {
	for u := 0; u < g.NLeft; u++ {
		lo, hi := g.Ptr[u], g.Ptr[u+1]
		row := g.Adj[lo:hi]
		if g.W == nil {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			continue
		}
		wrow := g.W[lo:hi]
		idx := make([]int, len(row))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return row[idx[i]] < row[idx[j]] })
		ra := make([]int32, len(row))
		wa := make([]int64, len(row))
		for i, k := range idx {
			ra[i], wa[i] = row[k], wrow[k]
		}
		copy(row, ra)
		copy(wrow, wa)
	}
}

// Builder accumulates edges and produces a Graph. Edges may be added in any
// order; Build lays them out in CSR order sorted by (left, right).
type Builder struct {
	nLeft, nRight int
	us, vs        []int32
	ws            []int64
	weighted      bool
}

// NewBuilder returns a Builder for a graph with nLeft tasks and nRight
// processors.
func NewBuilder(nLeft, nRight int) *Builder {
	return &Builder{nLeft: nLeft, nRight: nRight}
}

// AddEdge records a unit-weight edge (u, v).
func (b *Builder) AddEdge(u, v int) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records an edge (u, v) with weight w. Mixing AddEdge and
// AddWeightedEdge is allowed; the graph is weighted as soon as any weight
// differs from 1.
func (b *Builder) AddWeightedEdge(u, v int, w int64) {
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.ws = append(b.ws, w)
	if w != 1 {
		b.weighted = true
	}
}

// NumEdges returns the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.us) }

// Build validates and assembles the graph. It rejects out-of-range
// endpoints, duplicate edges, and non-positive weights.
func (b *Builder) Build() (*Graph, error) {
	for i := range b.us {
		if b.us[i] < 0 || int(b.us[i]) >= b.nLeft {
			return nil, fmt.Errorf("bipartite: left endpoint %d out of range [0,%d)", b.us[i], b.nLeft)
		}
		if b.vs[i] < 0 || int(b.vs[i]) >= b.nRight {
			return nil, fmt.Errorf("bipartite: right endpoint %d out of range [0,%d)", b.vs[i], b.nRight)
		}
		if b.ws[i] <= 0 {
			return nil, fmt.Errorf("bipartite: non-positive weight %d on edge (%d,%d)", b.ws[i], b.us[i], b.vs[i])
		}
	}
	g := &Graph{NLeft: b.nLeft, NRight: b.nRight}
	g.Ptr = make([]int32, b.nLeft+1)
	for _, u := range b.us {
		g.Ptr[u+1]++
	}
	for i := 0; i < b.nLeft; i++ {
		g.Ptr[i+1] += g.Ptr[i]
	}
	g.Adj = make([]int32, len(b.us))
	if b.weighted {
		g.W = make([]int64, len(b.us))
	}
	next := make([]int32, b.nLeft)
	copy(next, g.Ptr[:b.nLeft])
	for i := range b.us {
		pos := next[b.us[i]]
		next[b.us[i]]++
		g.Adj[pos] = b.vs[i]
		if g.W != nil {
			g.W[pos] = b.ws[i]
		}
	}
	g.SortRows()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build that panics on error; for tests and fixed literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// NewFromAdjacency builds a unit-weight graph from an adjacency list; row u
// lists the right neighbors of left vertex u. Intended for tests and small
// literals.
func NewFromAdjacency(nRight int, rows [][]int) (*Graph, error) {
	b := NewBuilder(len(rows), nRight)
	for u, row := range rows {
		for _, v := range row {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
