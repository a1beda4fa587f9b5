package exact

import (
	"math/rand"
	"slices"
	"testing"

	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
)

// SINGLEPROC instances are solved in singleton-hyperedge form. These
// tests pin the translation: the MULTIPROC greedy seed on the lifted
// instance is the SINGLEPROC greedy schedule, and every schedule a
// caller sees — warm start in, observations and result out — stays in
// task → processor encoding.

func TestSingletonGreedyMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		n, p := 1+rng.Intn(12), 1+rng.Intn(6)
		g := randomWeightedGraph(rng, n, p, 4, 30)
		if trial%2 == 1 {
			g = randomUnitGraph(rng, n, p, 4)
		}
		want := core.SortedGreedy(g, core.GreedyOptions{})
		edges := core.SortedGreedyHyp(hypergraph.FromGraph(g), core.HyperOptions{})
		if got := procsOf(g, edges); !slices.Equal(got, want) {
			t.Fatalf("trial %d: singleton greedy %v, SINGLEPROC greedy %v", trial, got, want)
		}
	}
}

func TestSingleProcObserverEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	adopted := 0
	for trial := 0; trial < 30; trial++ {
		g := randomWeightedGraph(rng, 8+rng.Intn(6), 2+rng.Intn(3), 3, 40)
		opt, mOpt, err := SolveSingleProc(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		greedyM := core.Makespan(g, core.SortedGreedy(g, core.GreedyOptions{}))
		for _, workers := range []int{1, 3} {
			var seen []int64
			a, m, err := SolveSingleProcPar(g, Options{
				Workers:          workers,
				InitialIncumbent: opt,
				Observer: func(m int64, a []int32) {
					if err := core.ValidateAssignment(g, a); err != nil {
						t.Errorf("trial %d: observed schedule not task → processor: %v", trial, err)
					} else if got := core.Makespan(g, a); got != m {
						t.Errorf("trial %d: observed makespan %d, schedule yields %d", trial, m, got)
					}
					seen = append(seen, m)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if m != mOpt || core.ValidateAssignment(g, a) != nil || core.Makespan(g, a) != m {
				t.Fatalf("trial %d: result %v (makespan %d) is not a task → processor optimum %d", trial, a, m, mOpt)
			}
			if len(seen) == 0 || seen[len(seen)-1] != m {
				t.Fatalf("trial %d: observations %v do not end at the result %d", trial, seen, m)
			}
			// The processor-encoded warm start was understood: when it
			// beats the greedy seed, it is the first incumbent observed.
			if mOpt < greedyM {
				if seen[0] != mOpt {
					t.Fatalf("trial %d: first observation %d, want the warm start's %d", trial, seen[0], mOpt)
				}
				adopted++
			}
		}
	}
	if adopted == 0 {
		t.Fatal("no trial had a warm start better than the greedy seed")
	}
}

// An edge-encoded schedule handed to a SINGLEPROC solver is not a
// processor assignment: unless it happens to validate as one, it must be
// ignored like any invalid warm start.
func TestSingleProcEdgeEncodedWarmStartIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		g := randomWeightedGraph(rng, 8+rng.Intn(6), 2+rng.Intn(3), 3, 40)
		var cold SearchStats
		opt, mCold, err := SolveSingleProc(g, Options{Stats: &cold})
		if err != nil {
			t.Fatal(err)
		}
		edges := edgesOf(g, opt)
		if core.ValidateAssignment(g, edges) == nil {
			continue
		}
		checked++
		var st SearchStats
		if _, m, err := SolveSingleProc(g, Options{Stats: &st, InitialIncumbent: edges}); err != nil || m != mCold || st.Nodes != cold.Nodes {
			t.Fatalf("trial %d: edge-encoded warm start perturbed the search: makespan %d/%d nodes %d/%d err %v",
				trial, m, mCold, st.Nodes, cold.Nodes, err)
		}
	}
	if checked == 0 {
		t.Fatal("every edge-encoded schedule validated as a processor assignment")
	}
}
