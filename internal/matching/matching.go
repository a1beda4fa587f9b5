// Package matching implements maximum-cardinality bipartite matching
// algorithms. It plays the role of the MatchMaker suite (Duff, Kaya & Uçar,
// TOMS'11; Kaya, Langguth, Manne & Uçar, COR'13) that the paper uses as a
// black box inside the exact SINGLEPROC-UNIT algorithm.
//
// Provided algorithms:
//
//   - HopcroftKarpCap: phase-based shortest augmenting paths, O(√V·E),
//     generalized to right-vertex capacity c (each right vertex may be
//     matched up to c times). core.ExactUnit runs it with c = D in place
//     of physically replicating right vertices.
//   - PushRelabel: FIFO push-relabel specialized to unit-capacity bipartite
//     graphs, with the gap heuristic (the paper's choice [15]); the tests'
//     copy of the paper's literal algorithm runs it on the replicated
//     graph G_D.
//   - KarpSipser: the degree-1-first greedy initialization heuristic used by
//     practical matching codes [16]; returns a maximal (not maximum)
//     matching.
//
// The tests keep plain Hopcroft–Karp and Kuhn's algorithm as references.
//
// All return a left-oriented matching: matchL[u] is the right vertex matched
// to left vertex u, or -1. Use Cardinality to count matched vertices.
package matching

import "context"

const unmatched = int32(-1)

// Unmatched is the sentinel used in matching arrays.
const Unmatched = unmatched

// Cardinality returns the number of matched left vertices.
func Cardinality(matchL []int32) int {
	n := 0
	for _, v := range matchL {
		if v != unmatched {
			n++
		}
	}
	return n
}

// graph is the minimal adjacency view the algorithms need; satisfied by
// *bipartite.Graph. Defining the interface here keeps the package free of
// upward dependencies while documenting exactly what is used.
type Graph interface {
	LeftCount() int
	RightCount() int
	Row(u int) []int32
}

// Adapter for CSR arrays without importing the bipartite package (avoids an
// import cycle decision; bipartite.Graph implements this shape via Wrap).
type csr struct {
	nLeft, nRight int
	ptr, adj      []int32
}

func (g csr) LeftCount() int    { return g.nLeft }
func (g csr) RightCount() int   { return g.nRight }
func (g csr) Row(u int) []int32 { return g.adj[g.ptr[u]:g.ptr[u+1]] }

// Wrap adapts raw CSR arrays to the Graph interface.
func Wrap(nLeft, nRight int, ptr, adj []int32) Graph {
	return csr{nLeft: nLeft, nRight: nRight, ptr: ptr, adj: adj}
}

// KarpSipser computes a maximal matching with the Karp–Sipser heuristic:
// repeatedly match a degree-1 left or right vertex if one exists, otherwise
// match an arbitrary (lowest-index) remaining vertex. This is the standard
// cheap initialization for augmenting-path matchers; on many random graph
// families it is near-optimal.
func KarpSipser(g Graph) []int32 {
	nL, nR := g.LeftCount(), g.RightCount()
	matchL := make([]int32, nL)
	matchR := make([]int32, nR)
	for i := range matchL {
		matchL[i] = unmatched
	}
	for i := range matchR {
		matchR[i] = unmatched
	}
	// Dynamic degrees. We only track left degrees exactly; right degrees
	// are approximated by initial degree minus matched neighbors, which is
	// enough for the degree-1 rule to fire correctly on the left side and
	// heuristically on the right.
	degL := make([]int32, nL)
	for u := 0; u < nL; u++ {
		degL[u] = int32(len(g.Row(u)))
	}
	degR := make([]int32, nR)
	for u := 0; u < nL; u++ {
		for _, v := range g.Row(u) {
			degR[v]++
		}
	}
	// Queue of degree-1 left vertices.
	queue := make([]int32, 0, nL)
	for u := 0; u < nL; u++ {
		if degL[u] == 1 {
			queue = append(queue, int32(u))
		}
	}
	tryMatch := func(u int32) {
		if matchL[u] != unmatched {
			return
		}
		// Prefer the free neighbor of minimum remaining degree (classic
		// Karp–Sipser tie-break), lowest index on ties.
		best := unmatched
		var bestDeg int32
		for _, v := range g.Row(int(u)) {
			if matchR[v] != unmatched {
				continue
			}
			if best == unmatched || degR[v] < bestDeg {
				best, bestDeg = v, degR[v]
			}
		}
		if best == unmatched {
			return
		}
		matchL[u] = best
		matchR[best] = u
		// Lower neighbor degrees; enqueue fresh degree-1 left vertices.
		for _, v := range g.Row(int(u)) {
			degR[v]--
		}
		// Decrement degL of left neighbors of `best` lazily: scanning the
		// reverse adjacency would need the transpose; instead we recompute
		// degL on demand below. To keep the heuristic O(E) we accept the
		// approximation and only use the initial-degree queue plus a final
		// sweep.
		_ = bestDeg
	}
	for _, u := range queue {
		tryMatch(u)
	}
	for u := int32(0); int(u) < nL; u++ {
		tryMatch(u)
	}
	return matchL
}

// HopcroftKarpCap computes a maximum "semi-matching" where each right vertex
// may be matched to up to cap left vertices (a degree-constrained subgraph,
// equivalently max-flow with right capacities). For cap=1 it is plain
// Hopcroft–Karp, seeded with Karp–Sipser. The exact SINGLEPROC-UNIT algorithm asks: can all tasks be
// matched when every processor has capacity D? This routine answers it
// without materializing the D-fold replicated graph of the paper.
//
// ctx is checked before each phase; once it has ended, HopcroftKarpCap
// returns nil and ctx.Err().
func HopcroftKarpCap(ctx context.Context, g Graph, cap int) ([]int32, error) {
	if cap < 1 {
		panic("matching: capacity must be >= 1")
	}
	return hopcroftKarp(ctx, g, cap, cap == 1)
}

const inf = int32(1 << 30)

func hopcroftKarp(ctx context.Context, g Graph, rcap int, seed bool) ([]int32, error) {
	nL, nR := g.LeftCount(), g.RightCount()
	matchL := make([]int32, nL)
	for i := range matchL {
		matchL[i] = unmatched
	}
	if seed && rcap == 1 {
		matchL = KarpSipser(g)
	}
	// loadR[v] = number of left vertices currently assigned to v.
	loadR := make([]int32, nR)
	// For rcap>1 a right vertex stores its matched left vertices; for
	// augmenting we only need *one* representative per BFS layer, and we
	// relocate via matchedOf lists.
	matchedOf := make([][]int32, nR)
	for u := 0; u < nL; u++ {
		if v := matchL[u]; v != unmatched {
			loadR[v]++
			matchedOf[v] = append(matchedOf[v], int32(u))
		}
	}

	distL := make([]int32, nL)
	queue := make([]int32, 0, nL)

	// BFS over alternating levels: free-left → right → (matched lefts of
	// saturated rights). Returns true if some augmenting path exists; distR
	// is implicit via distL of the matched partners.
	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < nL; u++ {
			if matchL[u] == unmatched {
				distL[u] = 0
				queue = append(queue, int32(u))
			} else {
				distL[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			cur := matchL[u]
			for _, v := range g.Row(int(u)) {
				if v == cur {
					continue // matched edge, not usable forward
				}
				if loadR[v] < int32(rcap) {
					found = true
					continue
				}
				for _, w := range matchedOf[v] {
					if distL[w] == inf {
						distL[w] = distL[u] + 1
						queue = append(queue, w)
					}
				}
			}
		}
		return found
	}

	// DFS along level-increasing edges. A matched vertex u must not revisit
	// its own matched edge (matchL[u]) as a forward edge.
	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		cur := matchL[u]
		for _, v := range g.Row(int(u)) {
			if v != cur && loadR[v] < int32(rcap) {
				matchL[u] = v
				loadR[v]++
				matchedOf[v] = append(matchedOf[v], u)
				distL[u] = inf
				return true
			}
		}
		for _, v := range g.Row(int(u)) {
			if v == cur {
				continue
			}
			lst := matchedOf[v]
			for i := 0; i < len(lst); i++ {
				w := lst[i]
				if distL[w] != distL[u]+1 {
					continue
				}
				if dfs(w) {
					// w moved elsewhere; u takes its slot at v.
					// Remove w from matchedOf[v] (w relocated in its dfs).
					lst = matchedOf[v] // may have been appended to by dfs(w)
					for j := range lst {
						if lst[j] == w {
							lst[j] = lst[len(lst)-1]
							matchedOf[v] = lst[:len(lst)-1]
							break
						}
					}
					matchL[u] = v
					matchedOf[v] = append(matchedOf[v], u)
					distL[u] = inf
					return true
				}
			}
		}
		distL[u] = inf
		return false
	}

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !bfs() {
			break
		}
		progress := false
		for u := int32(0); int(u) < nL; u++ {
			if matchL[u] == unmatched && distL[u] == 0 {
				if dfs(u) {
					progress = true
				}
			}
		}
		if !progress {
			break
		}
	}
	return matchL, nil
}

// PushRelabel computes a maximum matching with a FIFO push-relabel
// algorithm specialized to unit-capacity bipartite graphs, standing in for
// the code the paper's experiments used (Kaya, Langguth, Manne & Uçar [15]).
//
// The specialization takes the auction form: each right vertex carries a
// price (its push-relabel label); an unmatched left vertex pushes to its
// cheapest neighbor, evicting that neighbor's previous partner, and the
// neighbor's price rises to secondMin+1 (the relabel step). Prices above the
// cutoff 2·|V2| mean "unreachable from a free right vertex" and the left
// vertex is parked. Price wars on nearly-tight graphs can cost Θ(V·E) with
// a large constant, so the auction phase is additionally budgeted to a
// linear number of steps; whatever it leaves unmatched is finished by an
// exact augmenting-path sweep (Kuhn). The sweep certifies maximum
// cardinality no matter how the auction was cut short; on the paper's
// instance families it finds little and costs one pass.
func PushRelabel(g Graph) []int32 {
	nL, nR := g.LeftCount(), g.RightCount()
	matchL := make([]int32, nL)
	for i := range matchL {
		matchL[i] = unmatched
	}
	matchR := make([]int32, nR)
	for i := range matchR {
		matchR[i] = unmatched
	}
	price := make([]int32, nR)
	cutoff := int32(2*nR + 2)

	// Step budget: generous multiple of the input size. Beyond it the
	// auction is abandoned and the exact sweep takes over.
	edges := 0
	for u := 0; u < nL; u++ {
		edges += len(g.Row(u))
	}
	budget := 8*(nL+edges) + 64

	queue := make([]int32, 0, nL)
	for u := 0; u < nL; u++ {
		if len(g.Row(u)) > 0 {
			queue = append(queue, int32(u))
		}
	}
	var parked []int32
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if matchL[u] != unmatched {
			continue
		}
		if budget--; budget < 0 {
			// Abandon the auction: everything still unmatched from here
			// on is parked for the exact sweep.
			for _, w := range queue[qi:] {
				if matchL[w] == unmatched {
					parked = append(parked, w)
				}
			}
			break
		}
		row := g.Row(int(u))
		best, second := unmatched, inf
		bestPrice := inf
		for _, v := range row {
			p := price[v]
			if p < bestPrice {
				second = bestPrice
				best, bestPrice = v, p
			} else if p < second {
				second = p
			}
		}
		if bestPrice >= cutoff {
			parked = append(parked, u)
			continue
		}
		prev := matchR[best]
		matchR[best] = u
		matchL[u] = best
		price[best] = second + 1 // relabel; inf+1 parks single-neighbor rows' column forever
		if second >= cutoff {
			price[best] = cutoff
		}
		if prev != unmatched {
			matchL[prev] = unmatched
			queue = append(queue, prev)
		}
	}
	// Exact cleanup pass over parked vertices.
	if len(parked) > 0 {
		augmentAll(g, matchL, matchR, parked)
	}
	return matchL
}

// augmentAll runs Kuhn augmentation from each given unmatched left vertex,
// updating matchL/matchR in place.
func augmentAll(g Graph, matchL, matchR []int32, starts []int32) {
	nR := g.RightCount()
	visited := make([]int32, nR)
	for i := range visited {
		visited[i] = -1
	}
	stamp := int32(0)
	var try func(u int32) bool
	try = func(u int32) bool {
		for _, v := range g.Row(int(u)) {
			if matchR[v] == unmatched {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		for _, v := range g.Row(int(u)) {
			if visited[v] == stamp {
				continue
			}
			visited[v] = stamp
			if try(matchR[v]) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		return false
	}
	for _, u := range starts {
		if matchL[u] == unmatched {
			stamp++
			try(u)
		}
	}
}
