package core

import (
	"fmt"
	"sort"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// Assignment maps each task (left vertex) to its processor, or Unassigned.
// It is the semi-matching M of the paper restricted to SINGLEPROC: each
// task is incident to exactly one matching edge.
type Assignment []int32

// Unassigned marks a task without a processor (only valid transiently or
// for infeasible tasks with empty eligibility sets).
const Unassigned = int32(-1)

// Loads returns the per-processor load l(u) = Σ_{alloc(i)=u} w_i under a.
func Loads(g *bipartite.Graph, a Assignment) []int64 {
	loads := make([]int64, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		p := a[t]
		if p == Unassigned {
			continue
		}
		loads[p] += edgeWeightOf(g, t, p)
	}
	return loads
}

// Makespan returns max_u l(u) under a.
func Makespan(g *bipartite.Graph, a Assignment) int64 {
	max := int64(0)
	for _, l := range Loads(g, a) {
		if l > max {
			max = l
		}
	}
	return max
}

// ValidateAssignment checks that a assigns every task to one of its
// eligible processors.
func ValidateAssignment(g *bipartite.Graph, a Assignment) error {
	if len(a) != g.NLeft {
		return fmt.Errorf("core: assignment has %d entries for %d tasks", len(a), g.NLeft)
	}
	for t := 0; t < g.NLeft; t++ {
		p := a[t]
		if p == Unassigned {
			return fmt.Errorf("core: task %d unassigned", t)
		}
		if !hasEdge(g, t, p) {
			return fmt.Errorf("core: task %d assigned to ineligible processor %d", t, p)
		}
	}
	return nil
}

func hasEdge(g *bipartite.Graph, t int, p int32) bool {
	row := g.Neighbors(t)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= p })
	return i < len(row) && row[i] == p
}

// edgeWeightOf returns w(t,p); rows are sorted so binary search applies.
func edgeWeightOf(g *bipartite.Graph, t int, p int32) int64 {
	if g.Unit() {
		return 1
	}
	row := g.Neighbors(t)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= p })
	if i < len(row) && row[i] == p {
		return g.Weights(t)[i]
	}
	return 0
}

// tasksByDegree returns task indices sorted by non-decreasing out-degree,
// ties by index (a stable order, as "schedule the tasks that have less
// freedom first" requires a fixed order for reproducibility).
func tasksByDegree(g *bipartite.Graph) []int32 {
	order := make([]int32, g.NLeft)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Degree(int(order[i])) < g.Degree(int(order[j]))
	})
	return order
}

// BasicGreedy is Algorithm 1: visit tasks in index order and assign each to
// the eligible processor with the smallest current load. O(|E|).
func BasicGreedy(g *bipartite.Graph) Assignment {
	a := make(Assignment, g.NLeft)
	loads := make([]int64, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		a[t] = pickMinLoad(g, t, loads)
	}
	return a
}

// SortedGreedy is Algorithm 1 with tasks visited by non-decreasing
// out-degree ("sorted-greedy", Sec. IV-B2). It runs as SGH on the
// singleton-hyperedge lift (hypergraph.FromGraph), which is the same
// rule: a one-processor configuration's peak load is its processor's
// load, and configurations keep row order, so ties still go to the
// lowest processor. Isolated tasks stay Unassigned.
// O(|E| + |V1| log |V1|).
func SortedGreedy(g *bipartite.Graph) Assignment {
	a := SortedGreedyHyp(hypergraph.FromGraph(g))
	return hypergraph.ProcsOf(g, a)
}

// pickMinLoad assigns task t to its minimum-load eligible processor,
// updates loads, and returns the processor (Unassigned for isolated tasks).
// Ties break toward the first edge in row order (lowest processor index).
func pickMinLoad(g *bipartite.Graph, t int, loads []int64) int32 {
	row := g.Neighbors(t)
	if len(row) == 0 {
		return Unassigned
	}
	best := 0
	for i, p := range row {
		if loads[p] < loads[row[best]] {
			best = i
		}
	}
	p := row[best]
	loads[p] += edgeWeightAt(g, t, best)
	return p
}

// edgeWeightAt returns the weight of task t's i-th edge (1 on unit graphs).
func edgeWeightAt(g *bipartite.Graph, t, i int) int64 {
	if w := g.Weights(t); w != nil {
		return w[i]
	}
	return 1
}

// DoubleSorted is Algorithm 2: sorted-greedy where load ties additionally
// prefer the processor with the smaller in-degree d_u. O(|E|) after the
// degree computation.
func DoubleSorted(g *bipartite.Graph) Assignment {
	a := make(Assignment, g.NLeft)
	for i := range a {
		a[i] = Unassigned
	}
	loads := make([]int64, g.NRight)
	rdeg := g.RightDegrees()
	for _, t := range tasksByDegree(g) {
		row := g.Neighbors(int(t))
		if len(row) == 0 {
			continue
		}
		best := 0
		for i, p := range row {
			q := row[best]
			if loads[p] < loads[q] || (loads[p] == loads[q] && rdeg[p] < rdeg[q]) {
				best = i
			}
		}
		p := row[best]
		loads[p] += edgeWeightAt(g, int(t), best)
		a[t] = p
	}
	return a
}

// ExpectedGreedy is Algorithm 3: sorted-greedy driven by expected loads
// o(u). Initially o(u) = Σ_{v ∋ u} w(v,u)/d_v — the load u would get if
// every remaining task chose uniformly at random among its options.
// Assigning v to u collapses that distribution: u gains w − w/d_v and every
// other neighbor of v loses its w'/d_v share. O(|E|).
func ExpectedGreedy(g *bipartite.Graph) Assignment {
	a := make(Assignment, g.NLeft)
	for i := range a {
		a[i] = Unassigned
	}
	o := make([]float64, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		d := float64(g.Degree(t))
		if d == 0 {
			continue
		}
		row := g.Neighbors(t)
		w := g.Weights(t)
		for i, p := range row {
			wi := 1.0
			if w != nil {
				wi = float64(w[i])
			}
			o[p] += wi / d
		}
	}
	for _, t := range tasksByDegree(g) {
		row := g.Neighbors(int(t))
		if len(row) == 0 {
			continue
		}
		d := float64(len(row))
		w := g.Weights(int(t))
		weightAt := func(i int) float64 {
			if w == nil {
				return 1
			}
			return float64(w[i])
		}
		best := 0
		for i, p := range row {
			if o[p] < o[row[best]] {
				best = i
			}
		}
		p := row[best]
		a[t] = p
		o[p] += weightAt(best) - weightAt(best)/d
		for i, q := range row {
			if i != best {
				o[q] -= weightAt(i) / d
			}
		}
	}
	return a
}

// HarveyOptimal computes an optimal semi-matching for SINGLEPROC-UNIT with
// the cost-reducing-path algorithm of Harvey, Ladner, Lovász & Tamir [14]:
// start from any semi-matching and flip alternating paths from overloaded
// to underloaded processors until none exists. The result minimizes the
// makespan (indeed every convex cost). Unit graphs only. O(|V1|·|E|).
func HarveyOptimal(g *bipartite.Graph) (Assignment, error) {
	if !g.Unit() {
		return nil, fmt.Errorf("core: HarveyOptimal requires a unit-weighted graph")
	}
	for t := 0; t < g.NLeft; t++ {
		if g.Degree(t) == 0 {
			return nil, fmt.Errorf("core: task %d has no eligible processor", t)
		}
	}
	// Start from sorted-greedy (any semi-matching works; a good start
	// shortens the reduction phase).
	a := SortedGreedy(g)
	loads := make([]int64, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		loads[a[t]]++
	}
	// tasksAt[u] = tasks currently assigned to u, maintained incrementally.
	tasksAt := make([][]int32, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		tasksAt[a[t]] = append(tasksAt[a[t]], int32(t))
	}

	// BFS for a cost-reducing path from processor src: alternating
	// (assigned task → other eligible processor) edges reaching some
	// processor q with loads[q] <= loads[src]-2.
	parentTask := make([]int32, g.NRight) // task used to reach processor
	parentProc := make([]int32, g.NRight) // previous processor on the path
	visited := make([]int32, g.NRight)
	for i := range visited {
		visited[i] = -1
	}
	stamp := int32(0)

	findAndFlip := func(src int32) bool {
		stamp++
		queue := []int32{src}
		visited[src] = stamp
		parentProc[src] = -1
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, t := range tasksAt[u] {
				for _, v := range g.Neighbors(int(t)) {
					if visited[v] == stamp {
						continue
					}
					visited[v] = stamp
					parentTask[v] = t
					parentProc[v] = u
					if loads[v] <= loads[src]-2 {
						// Flip the path: move each parentTask one step.
						cur := v
						for parentProc[cur] != -1 {
							t := parentTask[cur]
							from := parentProc[cur]
							// reassign t: from → cur
							a[t] = cur
							removeTask(tasksAt, from, t)
							tasksAt[cur] = append(tasksAt[cur], t)
							cur = from
						}
						loads[v]++
						loads[src]--
						return true
					}
					queue = append(queue, v)
				}
			}
		}
		return false
	}

	// Repeatedly reduce from a maximum-load processor until no processor
	// admits a cost-reducing path.
	active := true
	for active {
		active = false
		// Processors sorted by decreasing load each round.
		order := make([]int32, g.NRight)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(i, j int) bool { return loads[order[i]] > loads[order[j]] })
		for _, u := range order {
			if loads[u] <= 1 {
				break
			}
			for findAndFlip(u) {
				active = true
			}
		}
	}
	return a, nil
}

func removeTask(tasksAt [][]int32, u, t int32) {
	lst := tasksAt[u]
	for i, x := range lst {
		if x == t {
			lst[i] = lst[len(lst)-1]
			tasksAt[u] = lst[:len(lst)-1]
			return
		}
	}
}
