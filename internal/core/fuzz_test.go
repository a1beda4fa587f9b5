package core_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
	"semimatch/internal/loadvec"
	"semimatch/internal/refine"
)

// FuzzVectorGreedies checks the fast vector greedies (VGH, EVG and EVG-X)
// against their copy-and-sort references, and refine.RefineCtx against
// one of its own, on instances decoded from the input. With up to 64
// processors and configurations of up to 16, two candidates can touch up
// to 32 processors between them.
func FuzzVectorGreedies(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 1, 2, 0, 1, 4, 0, 1, 0, 2, 2})
	f.Add(bytes.Repeat([]byte{63, 39, 3, 15, 5, 7, 200, 11}, 48))
	f.Add(bytes.Repeat([]byte{31, 12, 3, 13, 1, 0, 0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fuzzHyper(data)
		for _, alg := range []struct {
			name string
			run  func(*hypergraph.Hypergraph, core.HyperOptions) core.HyperAssignment
		}{
			{"VGH", core.VectorGreedyHyp},
			{"EVG", core.ExpectedVectorGreedyHyp},
			{"EVG-X", core.EVGX},
		} {
			fast := alg.run(h, core.HyperOptions{})
			naive := alg.run(h, core.HyperOptions{Naive: true})
			if !reflect.DeepEqual(fast, naive) {
				t.Fatalf("%s: fast %v, naive %v", alg.name, fast, naive)
			}
		}
		// Start from every task's first configuration, a poor schedule
		// that leaves refinement many moves to make.
		start := make(core.HyperAssignment, h.NTasks)
		for task := range start {
			start[task] = h.TaskEdges(task)[0]
		}
		got := refine.RefineCtx(context.Background(), h, start, refine.Options{})
		want, moves, rounds := refineRef(h, start)
		if !reflect.DeepEqual(got.Assignment, want) || got.Moves != moves || got.Rounds != rounds {
			t.Fatalf("refine: %v after %d moves in %d rounds, reference %v after %d moves in %d rounds",
				got.Assignment, got.Moves, got.Rounds, want, moves, rounds)
		}
	})
}

// fuzzHyper decodes an instance: 1–64 processors and 1–40 tasks, then per
// task 1–4 configurations, each with 1–16 processors (at most all of
// them) picked from a start and a stride, and a weight of 1–8. Bytes past
// the end of data read as zero.
func fuzzHyper(data []byte) *hypergraph.Hypergraph {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	p, n := 1+next(64), 1+next(40)
	b := hypergraph.NewBuilder(n, p)
	for task := 0; task < n; task++ {
		for d := 1 + next(4); d > 0; d-- {
			size := min(1+next(16), p)
			u, stride := next(p), 1+next(p)
			seen := make([]bool, p)
			procs := make([]int, 0, size)
			for len(procs) < size {
				for seen[u] {
					u = (u + 1) % p
				}
				seen[u] = true
				procs = append(procs, u)
				u = (u + stride) % p
			}
			b.AddEdge(task, procs, int64(1+next(8)))
		}
	}
	return b.MustBuild()
}

// refineRef is refine.RefineCtx by copy and sort: each pass visits the
// tasks in order and moves a task to the configuration whose full sorted
// load vector is smallest, ties to the earlier configuration, when that
// vector is strictly smaller than staying; passes repeat until one moves
// nothing.
func refineRef(h *hypergraph.Hypergraph, a core.HyperAssignment) (core.HyperAssignment, int, int) {
	cur := append(core.HyperAssignment(nil), a...)
	loads := core.HyperLoads(h, cur)
	tmp := make([]int64, h.NProcs)
	moves := 0
	for rounds := 1; ; rounds++ {
		improved := false
		for task := 0; task < h.NTasks; task++ {
			c := cur[task]
			best, bestVec := c, loadvec.SortedDesc(loads)
			for _, e := range h.TaskEdges(task) {
				if e == c {
					continue
				}
				copy(tmp, loads)
				for _, u := range h.EdgeProcs(c) {
					tmp[u] -= h.Weight[c]
				}
				for _, u := range h.EdgeProcs(e) {
					tmp[u] += h.Weight[e]
				}
				if vec := loadvec.SortedDesc(tmp); loadvec.CompareVec(vec, bestVec) < 0 {
					best, bestVec = e, vec
				}
			}
			if best != c {
				for _, u := range h.EdgeProcs(c) {
					loads[u] -= h.Weight[c]
				}
				for _, u := range h.EdgeProcs(best) {
					loads[u] += h.Weight[best]
				}
				cur[task] = best
				moves++
				improved = true
			}
		}
		if !improved {
			return cur, moves, rounds
		}
	}
}
