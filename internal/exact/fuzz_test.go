package exact

import (
	"context"
	"math/rand"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/cert"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// procSet decodes a non-empty processor subset of 0..p-1.
func (b *fuzzBytes) procSet(p int) []int {
	mask := 1 + b.next()%(1<<p-1)
	var procs []int
	for u := 0; u < p; u++ {
		if mask&(1<<u) != 0 {
			procs = append(procs, u)
		}
	}
	return procs
}

// fuzzInstance decodes a tiny SINGLEPROC graph or MULTIPROC hypergraph
// (n ≤ 8 tasks, p ≤ 4 processors) and returns it with its brute-force
// optimum.
func fuzzInstance(data []byte) (inst any, n, p int, opt int64) {
	b := fuzzBytes(data)
	multi := b.next()%2 == 1
	n, p = 1+b.next()%8, 1+b.next()%4
	unit := b.next()%4 == 0
	weight := func() int64 {
		if unit {
			return 1
		}
		return 1 + int64(b.next()%20)
	}
	if multi {
		hb := hypergraph.NewBuilder(n, p)
		for t := 0; t < n; t++ {
			for d := 1 + b.next()%3; d > 0; d-- {
				hb.AddEdge(t, b.procSet(p), weight())
			}
		}
		h := hb.MustBuild()
		return h, n, p, enumHyper(h)
	}
	gb := bipartite.NewBuilder(n, p)
	for t := 0; t < n; t++ {
		for _, u := range b.procSet(p) {
			gb.AddWeightedEdge(t, u, weight())
		}
	}
	g := gb.MustBuild()
	return g, n, p, enumSingle(g)
}

// FuzzEngines differentially tests the branch-and-bound engines against
// brute force on tiny instances of both classes: the sequential DFS
// (Workers: 1) and the parallel pool at 2–4 workers, cold, warm-started
// from an optimum, and warm-started from a decoded (usually invalid)
// schedule. Every returned schedule must be optimal, pass cert.Verify
// against the original instance, and end the observed incumbent
// trajectory; a valid warm start must not expand more nodes than the
// cold search, and an invalid one must not change it.
//
//	go test -run '^$' -fuzz '^FuzzEngines$' -fuzztime 30s ./internal/exact/
func FuzzEngines(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 8+rng.Intn(48))
		rng.Read(seed)
		seed[0] = byte(i) // alternate the classes
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, n, p, opt := fuzzInstance(data)
		solve := func(workers int, opts Options) ([]int32, int64, error) {
			opts.Workers = workers
			if g, single := inst.(*bipartite.Graph); single {
				return SolveSingleProc(context.Background(), g, opts)
			}
			return SolveMultiProc(context.Background(), inst.(*hypergraph.Hypergraph), opts)
		}
		check := func(label string, workers int, warm []int32) SearchStats {
			var st SearchStats
			var seen []int64
			a, m, err := solve(workers, Options{
				Stats:            &st,
				InitialIncumbent: warm,
				Observer:         func(m int64, _ []int32) { seen = append(seen, m) },
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			if m != opt {
				t.Fatalf("%s workers=%d: makespan %d, brute force %d", label, workers, m, opt)
			}
			c := cert.Issue(inst, a, m, true, st.Nodes, "fuzz")
			if _, err := cert.Verify(inst, c); err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			for i := 1; i < len(seen); i++ {
				if seen[i] >= seen[i-1] {
					t.Fatalf("%s workers=%d: observations not strictly decreasing: %v", label, workers, seen)
				}
			}
			if len(seen) == 0 || seen[len(seen)-1] != m {
				t.Fatalf("%s workers=%d: observations %v do not end at %d", label, workers, seen, m)
			}
			return st
		}

		cold := check("cold", 1, nil)
		var best []int32
		switch v := inst.(type) {
		case *bipartite.Graph:
			best, _, _ = SolveSingleProc(context.Background(), v, Options{Workers: 1})
		case *hypergraph.Hypergraph:
			best, _, _ = SolveMultiProc(context.Background(), v, Options{Workers: 1})
		}
		if warm := check("warm", 1, best); warm.Nodes > cold.Nodes {
			t.Fatalf("warm start expanded %d nodes, cold %d", warm.Nodes, cold.Nodes)
		}
		// A schedule decoded from the input's tail: wrong length, out of
		// range or ineligible entries must all be ignored.
		b := fuzzBytes(data[len(data)/2:])
		junk := make([]int32, n-b.next()%2)
		for t := range junk {
			junk[t] = int32(b.next()%(p+3)) - 1
		}
		for workers := 1; workers <= 4; workers++ {
			check("warm", workers, best)
			check("junk", workers, junk)
			if workers > 1 {
				check("cold", workers, nil)
			}
		}
		if valid := isValid(inst, junk); !valid {
			if st := check("junk", 1, junk); st.Nodes != cold.Nodes {
				t.Fatalf("invalid warm start changed the search: %d nodes, cold %d", st.Nodes, cold.Nodes)
			}
		}
	})
}

// isValid reports whether a is a feasible schedule of inst in its own
// encoding.
func isValid(inst any, a []int32) bool {
	switch v := inst.(type) {
	case *bipartite.Graph:
		return core.ValidateAssignment(v, a) == nil
	case *hypergraph.Hypergraph:
		return core.ValidateHyperAssignment(v, a) == nil
	}
	return false
}
