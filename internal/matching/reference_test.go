package matching

import "context"

// Reference matchers that only the tests run: the capacitated
// Hopcroft–Karp (HopcroftKarpCap) is the one the exact SINGLEPROC-UNIT
// algorithm uses, and the tests hold it and push-relabel to these.

// Kuhn computes a maximum matching using DFS augmenting paths with
// lookahead: before recursing, each left vertex first scans for a directly
// free right neighbor. Worst case O(V·E); fast in practice when seeded with
// Karp–Sipser.
func Kuhn(g Graph) []int32 {
	nL, nR := g.LeftCount(), g.RightCount()
	matchL := KarpSipser(g)
	matchR := make([]int32, nR)
	for i := range matchR {
		matchR[i] = unmatched
	}
	for u := 0; u < nL; u++ {
		if matchL[u] != unmatched {
			matchR[matchL[u]] = int32(u)
		}
	}
	visited := make([]int32, nR) // stamp per phase to avoid clearing
	stamp := int32(0)

	var tryAugment func(u int32) bool
	tryAugment = func(u int32) bool {
		// Lookahead pass.
		for _, v := range g.Row(int(u)) {
			if matchR[v] == unmatched {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		// Recursive pass.
		for _, v := range g.Row(int(u)) {
			if visited[v] == stamp {
				continue
			}
			visited[v] = stamp
			if tryAugment(matchR[v]) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		return false
	}
	for i := range visited {
		visited[i] = -1
	}
	for u := int32(0); int(u) < nL; u++ {
		if matchL[u] == unmatched {
			stamp++
			tryAugment(u)
		}
	}
	return matchL
}

// HopcroftKarp computes a maximum matching in O(√V · E): BFS builds layers
// from free left vertices, DFS extracts a maximal set of vertex-disjoint
// shortest augmenting paths, repeat. Seeded with Karp–Sipser.
func HopcroftKarp(g Graph) []int32 {
	m, _ := hopcroftKarp(context.Background(), g, 1, true)
	return m
}
