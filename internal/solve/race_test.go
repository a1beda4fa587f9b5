package solve

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
	"semimatch/internal/loadvec"
	"semimatch/internal/registry"
)

// raceClasses drives the race tests over both problem classes: a seeded
// instance of n tasks, the member the exact solvers seed their incumbent
// from, and a hard instance whose branch and bound runs for seconds
// (26 tasks on 3 processors, large distinct weights: 3^26 leaves and
// weak pruning).
var raceClasses = []struct {
	name    string
	class   registry.Class
	gen     func(seed int64, n int) Problem
	seedAlg string
	hard    func() Problem
	tie     func() Problem // two tasks with one configuration each
}{
	{
		name:    "MULTIPROC",
		class:   registry.MultiProc,
		gen:     func(seed int64, n int) Problem { return Hyper(randomHyper(seed, n, 6, 4, 4, 9)) },
		seedAlg: "SGH",
		hard: func() Problem {
			b := hypergraph.NewBuilder(26, 3)
			for task := 0; task < 26; task++ {
				for p := 0; p < 3; p++ {
					b.AddEdge(task, []int{p}, int64(1000+37*task+p))
				}
			}
			return Hyper(b.MustBuild())
		},
		tie: func() Problem {
			b := hypergraph.NewBuilder(2, 2)
			b.AddEdge(0, []int{0}, 3)
			b.AddEdge(1, []int{1}, 3)
			return Hyper(b.MustBuild())
		},
	},
	{
		name:    "SINGLEPROC",
		class:   registry.SingleProc,
		gen:     func(seed int64, n int) Problem { return Bipartite(weightedGraph(seed, n, 6, 4, 9)) },
		seedAlg: "sorted",
		hard: func() Problem {
			b := bipartite.NewBuilder(26, 3)
			for task := 0; task < 26; task++ {
				for p := 0; p < 3; p++ {
					b.AddWeightedEdge(task, p, int64(1000+37*task+p))
				}
			}
			return Bipartite(b.MustBuild())
		},
		tie: func() Problem {
			b := bipartite.NewBuilder(2, 2)
			b.AddWeightedEdge(0, 0, 3)
			b.AddWeightedEdge(1, 1, 3)
			return Bipartite(b.MustBuild())
		},
	},
}

// lineup is the class's default race membership, in tie-break order.
func lineup(c registry.Class) []string { return registry.Names(registry.Heuristics(c)) }

// raceOnly runs the auto policy with the exact stage disabled, so the
// Report is the race's own result.
func raceOnly(t *testing.T, p Problem, opts ...Option) *Report {
	t.Helper()
	rep, err := Run(context.Background(), p, append(opts, WithExactLimit(-1))...)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, p, rep)
	return rep
}

// TestRaceAtLeastAsGoodAsEveryMember: a complete race is not truncated
// and reports a load vector no worse than any member's alone.
func TestRaceAtLeastAsGoodAsEveryMember(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				p := tc.gen(seed, 1+int(seed*7)%40)
				rep := raceOnly(t, p)
				if rep.Status == StatusTruncated {
					t.Fatalf("seed %d: status %v, but nothing cut the race short", seed, rep.Status)
				}
				vec := loadvec.SortedDesc(rep.Loads)
				for _, name := range lineup(tc.class) {
					alone := raceOnly(t, p, WithPortfolio(name))
					if loadvec.CompareVec(vec, loadvec.SortedDesc(alone.Loads)) > 0 {
						t.Fatalf("seed %d: race %v worse than %s alone %v", seed, rep.Loads, name, alone.Loads)
					}
				}
			}
		})
	}
}

// TestRaceCtxBackgroundComplete: with a background context nothing cuts
// the race short, at any worker count: every member is judged, so the
// status is heuristic, not truncated.
func TestRaceCtxBackgroundComplete(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.gen(12, 50)
			for _, w := range []int{0, 1, 4} {
				if rep := raceOnly(t, p, WithWorkers(w)); rep.Status != StatusHeuristic {
					t.Fatalf("workers=%d: status %v, want heuristic", w, rep.Status)
				}
			}
		})
	}
}

// TestRaceDeterministicAcrossWorkerCounts: the race's winner and its
// schedule do not depend on how many goroutines the members run on.
func TestRaceDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				p := tc.gen(seed+3, 50)
				r1 := raceOnly(t, p, WithWorkers(1))
				r4 := raceOnly(t, p, WithWorkers(4))
				if r1.Solver != r4.Solver || !slices.Equal(r1.Assignment, r4.Assignment) {
					t.Fatalf("seed %d: winner %q (1 worker) vs %q (4 workers), or their schedules differ", seed, r1.Solver, r4.Solver)
				}
			}
		})
	}
}

// TestRaceSubset: a one-member race returns exactly that member's
// schedule under its canonical name.
func TestRaceSubset(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.gen(7, 30)
			rep := raceOnly(t, p, WithPortfolio(strings.ToLower(tc.seedAlg)))
			if rep.Solver != tc.seedAlg {
				t.Fatalf("winner %q, want %s", rep.Solver, tc.seedAlg)
			}
			sol, err := registry.LookupClass(tc.class, tc.seedAlg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sol.SolveInstance(context.Background(), p.instance(), registry.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := p.MakespanLoads(a); rep.Makespan != want {
				t.Fatalf("makespan %d, %s alone %d", rep.Makespan, tc.seedAlg, want)
			}
		})
	}
}

// TestRaceTieBreaksByOrder: when every member produces the same (only)
// schedule, the first member of the lineup wins at any worker count.
func TestRaceTieBreaksByOrder(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			first := lineup(tc.class)[0]
			for _, w := range []int{1, 4} {
				if rep := raceOnly(t, tc.tie(), WithWorkers(w)); rep.Solver != first {
					t.Fatalf("workers=%d: tie went to %q, want the first member %s", w, rep.Solver, first)
				}
			}
		})
	}
}

func TestRaceUnknownAlgorithmIsError(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), tc.gen(9, 10), WithPortfolio(tc.seedAlg, "bogus"))
			if err == nil || !strings.Contains(err.Error(), "bogus") {
				t.Fatalf("unknown member: err = %v, want one naming it", err)
			}
		})
	}
}

// TestRaceRefineNeverHurts: refinement only ever improves a candidate
// (SINGLEPROC ignores it, so there the two races agree).
func TestRaceRefineNeverHurts(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				p := tc.gen(seed+100, 40)
				plain := raceOnly(t, p)
				refined := raceOnly(t, p, WithRefine())
				if refined.Makespan > plain.Makespan {
					t.Fatalf("seed %d: refined %d worse than plain %d", seed, refined.Makespan, plain.Makespan)
				}
			}
		})
	}
}

// TestRaceExactMemberKeepsIncumbent: an exact member cut short is judged
// on its incumbent instead of failing the race. As the only member it
// is still running when the deadline fires, so the race waits for it.
func TestRaceExactMemberKeepsIncumbent(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.hard()
			bnb, err := registry.LookupClass(tc.class, "bnb")
			if err != nil {
				t.Fatal(err)
			}
			rep := raceOnly(t, p, WithPortfolio(bnb.Name), WithDeadline(50*time.Millisecond))
			if rep.Solver != bnb.Name || rep.Status != StatusTruncated {
				t.Fatalf("exact member: solver %q status %v, want %s's incumbent, truncated", rep.Solver, rep.Status, bnb.Name)
			}
			if seed := raceOnly(t, p, WithPortfolio(tc.seedAlg)); rep.Makespan > seed.Makespan {
				t.Fatalf("incumbent %d worse than the %s seed %d it starts from", rep.Makespan, tc.seedAlg, seed.Makespan)
			}
		})
	}
}

// TestRaceMidRaceDeadline: a deadline that expires while the first
// greedy is still running yields that greedy's schedule, truncated —
// never an error. 100k tasks keep every greedy busy for milliseconds.
func TestRaceMidRaceDeadline(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.gen(1, 100_000)
			rep, err := Run(context.Background(), p, WithDeadline(time.Millisecond), WithWorkers(1))
			if err != nil {
				t.Fatalf("deadline mid-race: %v, want a truncated schedule", err)
			}
			checkReport(t, p, rep)
			if rep.Status != StatusTruncated {
				t.Fatalf("status %v, want truncated", rep.Status)
			}
		})
	}
}

// TestRaceContextAlreadyDone: with no time at all there is no schedule,
// and the error says why.
func TestRaceContextAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(ctx, tc.gen(10, 10))
			if !errors.Is(err, context.Canceled) || rep != nil {
				t.Fatalf("done context: report %v, err %v; want nil and context.Canceled", rep, err)
			}
		})
	}
}

func BenchmarkRace(b *testing.B) {
	p := Hyper(randomHyper(1, 5120, 256, 5, 10, 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), p, WithExactLimit(-1)); err != nil {
			b.Fatal(err)
		}
	}
}
