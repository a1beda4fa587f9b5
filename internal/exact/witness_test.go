package exact

import (
	"context"
	"math/rand"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/cert"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
	"semimatch/internal/lb"
)

// strongBoundsOf re-derives the packing and matching bounds for an
// instance, mirroring what the engines compile into flatcore.Bounds.
func strongBoundsOf(t *testing.T, inst any) (pack, match int64) {
	t.Helper()
	switch v := inst.(type) {
	case *bipartite.Graph:
		return strongBoundsOf(t, hypergraph.FromGraph(v))
	case *hypergraph.Hypergraph:
		return lb.Packing(lb.MinPlacementsHyper(v), v.NProcs), lb.MatchingHyper(v)
	}
	t.Fatalf("unknown instance type %T", inst)
	return 0, 0
}

// TestSearchStatsWitness: every engine (sequential and parallel, both
// classes) reports its strongest root bound, and the certificate issued
// for its result carries a witness that holds — a completed search gets
// an optimality witness (a bound that closed the gap, or exhaustion),
// and the reported bound never exceeds the returned makespan.
func TestSearchStatsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomWeightedGraph(rng, 9, 3, 3, 9)
		h := randomHyper(rng, 7, 3, 3, 2, 6)

		type run struct {
			name  string
			solve func(st *SearchStats) ([]int32, int64, error)
			inst  any
		}
		runs := []run{
			{name: "sp-seq", solve: func(st *SearchStats) ([]int32, int64, error) {
				a, m, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: st})
				return a, m, err
			}, inst: g},
			{name: "sp-par", solve: func(st *SearchStats) ([]int32, int64, error) {
				a, m, err := SolveSingleProc(context.Background(), g, Options{Stats: st, Workers: 2})
				return a, m, err
			}, inst: g},
			{name: "mp-seq", solve: func(st *SearchStats) ([]int32, int64, error) {
				a, m, err := SolveMultiProc(context.Background(), h, Options{Workers: 1, Stats: st})
				return a, m, err
			}, inst: h},
			{name: "mp-par", solve: func(st *SearchStats) ([]int32, int64, error) {
				a, m, err := SolveMultiProc(context.Background(), h, Options{Stats: st, Workers: 2})
				return a, m, err
			}, inst: h},
		}
		for _, r := range runs {
			var st SearchStats
			a, m, err := r.solve(&st)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			wit := cert.Issue(r.inst, a, m, true, st.Nodes, r.name).Witness.Kind
			if wit == cert.WitnessNone {
				t.Fatalf("%s: completed search certified with no witness (stats %+v)", r.name, st)
			}
			if st.Bound > m {
				t.Fatalf("%s: bound %d > makespan %d", r.name, st.Bound, m)
			}
			avg, maxElem, berr := cert.Bounds(r.inst)
			if berr != nil {
				t.Fatal(berr)
			}
			pack, match := strongBoundsOf(t, r.inst)
			switch wit {
			case cert.WitnessAverageLoad:
				if avg != m {
					t.Fatalf("%s: average-load witness but avg %d ≠ makespan %d", r.name, avg, m)
				}
			case cert.WitnessMaxElement:
				if maxElem != m {
					t.Fatalf("%s: max-element witness but maxElem %d ≠ makespan %d", r.name, maxElem, m)
				}
			case cert.WitnessPacking:
				if pack != m {
					t.Fatalf("%s: packing witness but pack %d ≠ makespan %d", r.name, pack, m)
				}
			case cert.WitnessMatching:
				if match != m {
					t.Fatalf("%s: matching witness but match %d ≠ makespan %d", r.name, match, m)
				}
			case cert.WitnessExhaustive:
				if avg == m || maxElem == m || pack == m || match == m {
					t.Fatalf("%s: exhaustive witness although a bound closes the gap (avg %d, maxElem %d, pack %d, match %d, m %d)",
						r.name, avg, maxElem, pack, match, m)
				}
			}
			// The reported bound is the strongest of the four root bounds:
			// at least the cheap ones, never above the optimum.
			want := max(max(avg, maxElem), max(pack, match))
			if st.Bound != want {
				t.Fatalf("%s: bound %d, want strongest root bound %d", r.name, st.Bound, want)
			}
		}
	}
}

// TestSearchStatsWitnessTruncated: a budget-truncated search keeps its
// root bound, and the certificate issued for its incumbent makes no
// optimality claim.
func TestSearchStatsWitnessTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomWeightedGraph(rng, 18, 4, 4, 50)
	var st SearchStats
	a, m, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, MaxNodes: 5, Stats: &st})
	if err == nil {
		t.Skip("instance solved within 5 nodes; cannot exercise truncation")
	}
	if a == nil {
		t.Fatal("truncated solve returned no incumbent")
	}
	if got := core.Makespan(g, a); got != m {
		t.Fatalf("incumbent makespan %d, reported %d", got, m)
	}
	if c := cert.Issue(g, a, m, false, st.Nodes, "bnb"); c.Witness.Kind != cert.WitnessNone {
		t.Fatalf("truncated search certified with witness %s", c.Witness.Kind)
	}
	if st.Bound <= 0 {
		t.Fatalf("truncated search lost the root bound: %+v", st)
	}
}
