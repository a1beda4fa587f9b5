// Package hypergraph provides the bipartite-hypergraph model of the
// MULTIPROC scheduling problem (Sec. II-B of Benoit, Langguth & Uçar,
// IPDPSW'13).
//
// A MULTIPROC instance is a hypergraph H = (V1 ∪ V2, N) whose vertex set is
// bipartite (V1 = tasks, V2 = processors) and whose every hyperedge h
// contains exactly one task vertex: h = {T_i} ∪ (h ∩ V2). Choosing hyperedge
// h for its task assigns weight w_h to every processor in h ∩ V2.
//
// The storage is two CSR layers:
//
//	task t   →  hyperedges   Edges[TaskPtr[t]:TaskPtr[t+1]]
//	edge  e  →  processors   Pins[PinPtr[e]:PinPtr[e+1]]
//
// plus Owner[e] (the unique task of e) and Weight[e] (= w_h, 1 if unit).
package hypergraph

import (
	"errors"
	"fmt"
	"slices"

	"semimatch/internal/bipartite"
)

// Hypergraph is an immutable MULTIPROC instance. Construct with a Builder.
type Hypergraph struct {
	NTasks int // |V1|
	NProcs int // |V2|

	// Task → hyperedge CSR. Edges holds hyperedge ids grouped by task; the
	// hyperedges of task t are Edges[TaskPtr[t]:TaskPtr[t+1]]. Because every
	// hyperedge has exactly one owner task, Edges is a permutation of
	// 0..NumEdges-1 (in fact the identity when built via Builder, which
	// numbers hyperedges in task order).
	TaskPtr []int32
	Edges   []int32

	// Hyperedge → processor CSR ("pins" in hypergraph parlance).
	PinPtr []int32
	Pins   []int32

	Owner  []int32 // Owner[e] = task of hyperedge e
	Weight []int64 // Weight[e] = w_e; all 1 for MULTIPROC-UNIT
	unit   bool
}

// NumEdges returns |N|, the number of hyperedges.
func (h *Hypergraph) NumEdges() int { return len(h.Owner) }

// NumPins returns Σ_h |h ∩ V2|, the total processor slots over all
// hyperedges (the last column of Table I in the paper).
func (h *Hypergraph) NumPins() int { return len(h.Pins) }

// Unit reports whether all hyperedge weights are 1 (MULTIPROC-UNIT).
func (h *Hypergraph) Unit() bool { return h.unit }

// TaskDegree returns d_v: the number of configurations of task t.
func (h *Hypergraph) TaskDegree(t int) int { return int(h.TaskPtr[t+1] - h.TaskPtr[t]) }

// TaskEdges returns the hyperedge ids of task t. The slice aliases internal
// storage and must not be modified.
func (h *Hypergraph) TaskEdges(t int) []int32 { return h.Edges[h.TaskPtr[t]:h.TaskPtr[t+1]] }

// EdgeProcs returns the processor set h ∩ V2 of hyperedge e (sorted). The
// slice aliases internal storage and must not be modified.
func (h *Hypergraph) EdgeProcs(e int32) []int32 { return h.Pins[h.PinPtr[e]:h.PinPtr[e+1]] }

// EdgeSize returns |h ∩ V2| of hyperedge e.
func (h *Hypergraph) EdgeSize(e int32) int { return int(h.PinPtr[e+1] - h.PinPtr[e]) }

// Validate checks all structural invariants: CSR monotonicity, ranges,
// every task owning at least one hyperedge, Owner consistency with the
// task→edge CSR, sorted duplicate-free pin lists, positive weights, and
// non-empty processor sets.
func (h *Hypergraph) Validate() error {
	if h.NTasks < 0 || h.NProcs < 0 {
		return errors.New("hypergraph: negative vertex count")
	}
	if len(h.TaskPtr) != h.NTasks+1 {
		return fmt.Errorf("hypergraph: len(TaskPtr)=%d, want %d", len(h.TaskPtr), h.NTasks+1)
	}
	m := h.NumEdges()
	if len(h.PinPtr) != m+1 {
		return fmt.Errorf("hypergraph: len(PinPtr)=%d, want %d", len(h.PinPtr), m+1)
	}
	if len(h.Weight) != m {
		return fmt.Errorf("hypergraph: len(Weight)=%d, want %d", len(h.Weight), m)
	}
	if len(h.Edges) != m {
		return fmt.Errorf("hypergraph: len(Edges)=%d, want %d (each hyperedge has one owner)", len(h.Edges), m)
	}
	if h.TaskPtr[0] != 0 || int(h.TaskPtr[h.NTasks]) != m {
		return errors.New("hypergraph: TaskPtr endpoints wrong")
	}
	seen := make([]bool, m)
	for t := 0; t < h.NTasks; t++ {
		if h.TaskPtr[t+1] < h.TaskPtr[t] {
			return fmt.Errorf("hypergraph: TaskPtr not monotone at %d", t)
		}
		if h.TaskPtr[t+1] == h.TaskPtr[t] {
			return fmt.Errorf("hypergraph: task %d has no configuration", t)
		}
		for _, e := range h.TaskEdges(t) {
			if e < 0 || int(e) >= m {
				return fmt.Errorf("hypergraph: edge id %d out of range", e)
			}
			if seen[e] {
				return fmt.Errorf("hypergraph: hyperedge %d listed for two tasks", e)
			}
			seen[e] = true
			if h.Owner[e] != int32(t) {
				return fmt.Errorf("hypergraph: Owner[%d]=%d, want %d", e, h.Owner[e], t)
			}
		}
	}
	if h.PinPtr[0] != 0 || int(h.PinPtr[m]) != len(h.Pins) {
		return errors.New("hypergraph: PinPtr endpoints wrong")
	}
	unit := true
	for e := int32(0); int(e) < m; e++ {
		if h.PinPtr[e+1] < h.PinPtr[e] {
			return fmt.Errorf("hypergraph: PinPtr not monotone at %d", e)
		}
		procs := h.EdgeProcs(e)
		if len(procs) == 0 {
			return fmt.Errorf("hypergraph: hyperedge %d has empty processor set", e)
		}
		for i, u := range procs {
			if u < 0 || int(u) >= h.NProcs {
				return fmt.Errorf("hypergraph: pin %d of hyperedge %d out of range", u, e)
			}
			if i > 0 && procs[i-1] >= u {
				return fmt.Errorf("hypergraph: pins of hyperedge %d not sorted/unique", e)
			}
		}
		if h.Weight[e] <= 0 {
			return fmt.Errorf("hypergraph: non-positive weight %d on hyperedge %d", h.Weight[e], e)
		}
		if h.Weight[e] != 1 {
			unit = false
		}
	}
	if unit != h.unit {
		return fmt.Errorf("hypergraph: unit flag %v inconsistent with weights", h.unit)
	}
	return nil
}

// MinMaxEdgeSize returns the minimum and maximum |h ∩ V2| over all
// hyperedges. Used by the "related" weight scheme of Sec. V-A2:
// w_h = ceil(min_s * max_s / s_h).
func (h *Hypergraph) MinMaxEdgeSize() (minSize, maxSize int) {
	if h.NumEdges() == 0 {
		return 0, 0
	}
	minSize = h.EdgeSize(0)
	maxSize = minSize
	for e := int32(1); int(e) < h.NumEdges(); e++ {
		s := h.EdgeSize(e)
		if s < minSize {
			minSize = s
		}
		if s > maxSize {
			maxSize = s
		}
	}
	return minSize, maxSize
}

// FromGraph lifts a SINGLEPROC instance into MULTIPROC form (Sec. II-B):
// edge k of g, in row order, becomes hyperedge k with the single pin
// g.Adj[k]. Hyperedge ids are therefore task-grouped exactly like g's
// rows, so edge k ↔ hyperedge k translates assignments in O(1) each way.
// The result shares g's Ptr and Adj arrays; g must not be mutated while
// it is in use. A task with no eligible processor yields a hypergraph
// that fails Validate.
func FromGraph(g *bipartite.Graph) *Hypergraph {
	m := g.NumEdges()
	// Edges is the identity and PinPtr is 0..m, so they share one array.
	ids := make([]int32, m+1)
	h := &Hypergraph{
		NTasks:  g.NLeft,
		NProcs:  g.NRight,
		TaskPtr: g.Ptr,
		Edges:   ids[:m:m],
		PinPtr:  ids,
		Pins:    g.Adj,
		Owner:   make([]int32, m),
		Weight:  make([]int64, m),
		unit:    true,
	}
	for e := range ids {
		ids[e] = int32(e)
	}
	for e := range h.Weight {
		h.Weight[e] = g.EdgeWeight(int32(e))
		if h.Weight[e] != 1 {
			h.unit = false
		}
	}
	for t := 0; t < g.NLeft; t++ {
		for e := g.Ptr[t]; e < g.Ptr[t+1]; e++ {
			h.Owner[e] = int32(t)
		}
	}
	return h
}

// EdgesOf translates a task → processor schedule of g into the edge
// encoding of FromGraph(g): task t's entry becomes the id of its edge to
// that processor. A schedule that is not a complete, feasible assignment
// of g translates to nil.
func EdgesOf(g *bipartite.Graph, a []int32) []int32 {
	if len(a) != g.NLeft {
		return nil
	}
	edges := make([]int32, len(a))
	for t, proc := range a {
		e := g.Ptr[t]
		for e < g.Ptr[t+1] && g.Adj[e] != proc {
			e++
		}
		if e == g.Ptr[t+1] {
			return nil
		}
		edges[t] = e
	}
	return edges
}

// ProcsOf rewrites an edge-encoded schedule of FromGraph(g) in place into
// g's task → processor encoding and returns it. Negative entries
// (unassigned tasks) stay as they are.
func ProcsOf(g *bipartite.Graph, a []int32) []int32 {
	for t, e := range a {
		if e >= 0 {
			a[t] = g.Adj[e]
		}
	}
	return a
}

// PermuteEdges returns a copy of h whose hyperedge i is h's hyperedge
// order[i]. order must be a permutation of the hyperedge ids that keeps
// every hyperedge inside its task's block (positions TaskPtr[t] to
// TaskPtr[t+1]-1 hold task t's hyperedges), so the copy has h's TaskPtr,
// identity Edges, and is exactly what a Builder fed the hyperedges in
// that order would build. PermuteEdges panics if an entry of order lies
// outside its task's block.
func (h *Hypergraph) PermuteEdges(order []int32) *Hypergraph {
	m := h.NumEdges()
	if len(order) != m {
		panic(fmt.Sprintf("hypergraph: PermuteEdges: %d ids for %d hyperedges", len(order), m))
	}
	c := &Hypergraph{
		NTasks:  h.NTasks,
		NProcs:  h.NProcs,
		TaskPtr: append([]int32(nil), h.TaskPtr...),
		Edges:   make([]int32, m),
		PinPtr:  make([]int32, m+1),
		Pins:    make([]int32, 0, len(h.Pins)),
		Owner:   make([]int32, m),
		Weight:  make([]int64, m),
		unit:    h.unit,
	}
	for t := int32(0); int(t) < h.NTasks; t++ {
		for i := h.TaskPtr[t]; i < h.TaskPtr[t+1]; i++ {
			e := order[i]
			if h.Owner[e] != t {
				panic(fmt.Sprintf("hypergraph: PermuteEdges: hyperedge %d of task %d placed in task %d's block", e, h.Owner[e], t))
			}
			c.Edges[i] = i
			c.Owner[i] = t
			c.Weight[i] = h.Weight[e]
			c.Pins = append(c.Pins, h.EdgeProcs(e)...)
			c.PinPtr[i+1] = int32(len(c.Pins))
		}
	}
	return c
}

// Builder accumulates hyperedges and produces a Hypergraph. Hyperedges are
// numbered in the order AddEdge is called within each task; Build groups
// them by task, renumbering so that hyperedge ids are contiguous per task
// (task order, then insertion order). Build reports the new ids implicitly:
// TaskEdges(t) lists them in insertion order.
type Builder struct {
	nTasks, nProcs int
	owners         []int32
	weights        []int64
	// The processor sets, concatenated in insertion order: set i is
	// pins[pinPtr[i]:pinPtr[i+1]], and pinPtr starts with 0.
	pins   []int32
	pinPtr []int32
}

// NewBuilder returns a Builder for nTasks tasks and nProcs processors.
func NewBuilder(nTasks, nProcs int) *Builder {
	return NewBuilderSize(nTasks, nProcs, 0, 0)
}

// NewBuilderSize is NewBuilder with room for edges hyperedges holding
// pins processor slots in all, so adding that many grows nothing.
func NewBuilderSize(nTasks, nProcs, edges, pins int) *Builder {
	return &Builder{
		nTasks:  nTasks,
		nProcs:  nProcs,
		owners:  make([]int32, 0, edges),
		weights: make([]int64, 0, edges),
		pins:    make([]int32, 0, pins),
		pinPtr:  make([]int32, 1, edges+1),
	}
}

// AddEdge records a configuration for task t: it may run on all processors
// in procs (each receiving weight w). The procs slice is copied.
func (b *Builder) AddEdge(t int, procs []int, w int64) {
	for _, p := range procs {
		b.pins = append(b.pins, int32(p))
	}
	b.addEdge(int32(t), w)
}

// AddEdge32 is AddEdge for an []int32 processor list (copied).
func (b *Builder) AddEdge32(t int32, procs []int32, w int64) {
	b.pins = append(b.pins, procs...)
	b.addEdge(t, w)
}

// addEdge closes the processor set just appended to b.pins.
func (b *Builder) addEdge(t int32, w int64) {
	b.owners = append(b.owners, t)
	b.weights = append(b.weights, w)
	b.pinPtr = append(b.pinPtr, int32(len(b.pins)))
}

// procSet returns the processor set of the old-th recorded hyperedge.
func (b *Builder) procSet(old int) []int32 {
	return b.pins[b.pinPtr[old]:b.pinPtr[old+1]]
}

// NumEdges returns the number of hyperedges recorded so far.
func (b *Builder) NumEdges() int { return len(b.owners) }

// Build validates and assembles the hypergraph. Each processor set is
// sorted in the builder's copy. When the hyperedges were added in task
// order, the hypergraph shares the builder's arrays instead of copying
// them: a later AddEdge only appends past the shared part, so the
// hypergraph stays immutable.
func (b *Builder) Build() (*Hypergraph, error) {
	m := len(b.owners)
	h := &Hypergraph{NTasks: b.nTasks, NProcs: b.nProcs, unit: true}
	h.TaskPtr = make([]int32, b.nTasks+1)
	grouped := true
	for old, t := range b.owners {
		if t < 0 || int(t) >= b.nTasks {
			return nil, fmt.Errorf("hypergraph: task %d out of range [0,%d)", t, b.nTasks)
		}
		h.TaskPtr[t+1]++
		if old > 0 && t < b.owners[old-1] {
			grouped = false
		}
	}
	for t := 0; t < b.nTasks; t++ {
		if h.TaskPtr[t+1] == 0 {
			return nil, fmt.Errorf("hypergraph: task %d has no configuration", t)
		}
		h.TaskPtr[t+1] += h.TaskPtr[t]
	}
	for _, w := range b.weights {
		if w <= 0 {
			return nil, fmt.Errorf("hypergraph: non-positive weight %d", w)
		}
		if w != 1 {
			h.unit = false
		}
	}
	for old := 0; old < m; old++ {
		procs := b.procSet(old)
		if len(procs) == 0 {
			return nil, fmt.Errorf("hypergraph: empty processor set on a configuration of task %d", b.owners[old])
		}
		if !slices.IsSorted(procs) {
			slices.Sort(procs) // a set shared by an earlier Build is sorted: never written
		}
		for i, u := range procs {
			if u < 0 || int(u) >= b.nProcs {
				return nil, fmt.Errorf("hypergraph: processor %d out of range [0,%d)", u, b.nProcs)
			}
			if i > 0 && procs[i-1] == u {
				return nil, fmt.Errorf("hypergraph: duplicate processor %d in a configuration of task %d", u, b.owners[old])
			}
		}
	}
	if grouped {
		h.Owner, h.Weight = slices.Clip(b.owners), slices.Clip(b.weights)
		h.Pins, h.PinPtr = slices.Clip(b.pins), slices.Clip(b.pinPtr)
	} else {
		b.regroup(h)
	}
	h.Edges = make([]int32, m)
	for e := range h.Edges {
		h.Edges[e] = int32(e) // identity: edges are grouped by task already
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// regroup fills h's hyperedge arrays from hyperedges added out of task
// order: new ids run in task order, then insertion order. h.TaskPtr must
// already be set.
func (b *Builder) regroup(h *Hypergraph) {
	m := len(b.owners)
	perm := make([]int32, m) // perm[old] = new id
	next := make([]int32, b.nTasks)
	copy(next, h.TaskPtr[:b.nTasks])
	for old, t := range b.owners {
		perm[old] = next[t]
		next[t]++
	}
	h.Owner = make([]int32, m)
	h.Weight = make([]int64, m)
	h.PinPtr = make([]int32, m+1)
	for old, e := range perm {
		h.Owner[e] = b.owners[old]
		h.Weight[e] = b.weights[old]
		h.PinPtr[e+1] = int32(len(b.procSet(old)))
	}
	for e := 0; e < m; e++ {
		h.PinPtr[e+1] += h.PinPtr[e]
	}
	h.Pins = make([]int32, len(b.pins))
	for old, e := range perm {
		copy(h.Pins[h.PinPtr[e]:], b.procSet(old))
	}
}

// MustBuild is Build that panics on error; for tests and fixed literals.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}
