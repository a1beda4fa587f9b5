package solve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
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
			// The full auto policy adds the exact stage, whose parallel
			// branch and bound runs at the same worker count. Its rounds
			// are deterministic, so the Run's answer, node count included,
			// does not depend on the count from 2 workers up (1 worker is
			// the sequential DFS, which may return another co-optimal
			// schedule).
			for seed := int64(0); seed < 3; seed++ {
				p := tc.gen(seed+3, 14)
				var reps [2]*Report
				for i, w := range []int{2, 4} {
					rep, err := Run(context.Background(), p, WithWorkers(w))
					if err != nil {
						t.Fatal(err)
					}
					checkReport(t, p, rep)
					if rep.Stats.Workers != w {
						t.Fatalf("seed %d: exact stage ran with %d workers, want %d", seed, rep.Stats.Workers, w)
					}
					reps[i] = rep
				}
				r2, r4 := reps[0], reps[1]
				if r2.Solver != r4.Solver || r2.Status != r4.Status || r2.Stats.Nodes != r4.Stats.Nodes ||
					!slices.Equal(r2.Assignment, r4.Assignment) {
					t.Fatalf("seed %d: auto policy at 2 workers (%s, %v, %d nodes) vs 4 workers (%s, %v, %d nodes), or their schedules differ",
						seed, r2.Solver, r2.Status, r2.Stats.Nodes, r4.Solver, r4.Status, r4.Stats.Nodes)
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

// TestRaceMidRaceDeadline: a context that ends mid-race yields the
// schedule judged so far, truncated — never an error. The observer ends
// it as the first member's schedule arrives, so no wall clock decides
// whether the race has begun; with one worker, the other members never
// start.
func TestRaceMidRaceDeadline(t *testing.T) {
	for _, tc := range raceClasses {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.gen(1, 1000)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rep, err := Run(ctx, p, WithWorkers(1), WithObserver(func(inc Incumbent) {
				if !inc.Final {
					cancel()
				}
			}))
			if err != nil {
				t.Fatalf("context ended mid-race: %v, want a truncated schedule", err)
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

// TestRaceOneWorkerMatchesFourOnGrid: on the optimality grid, the race
// run inline at one worker and on goroutines at four returns the same
// winner and schedule, with the observer seeing the same improvements.
func TestRaceOneWorkerMatchesFourOnGrid(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for name, p := range optimalityGrid(t, seeds) {
		var seen [2][]string
		var reps [2]*Report
		for i, w := range []int{1, 4} {
			reps[i] = raceOnly(t, p, WithWorkers(w), WithObserver(func(inc Incumbent) {
				seen[i] = append(seen[i], inc.Solver)
			}))
		}
		if reps[0].Solver != reps[1].Solver || !slices.Equal(reps[0].Assignment, reps[1].Assignment) {
			t.Fatalf("%s: winner %q at 1 worker, %q at 4, or their schedules differ", name, reps[0].Solver, reps[1].Solver)
		}
		// At four workers members finish in any order, so only the
		// improvements' last word, the winner, is comparable; at one
		// worker they arrive in lineup order.
		order := lineup(p.Class())
		last := -1
		for _, s := range seen[0][:len(seen[0])-1] {
			i := slices.Index(order, s)
			if i <= last {
				t.Fatalf("%s: one-worker observer saw %v, not in lineup order %v", name, seen[0], order)
			}
			last = i
		}
	}
}

// stepHyper has one task whose configuration i on processor 0 weighs
// 10 - 2i, so member i of a fakeLineup, which picks configuration i,
// improves on every member before it.
func stepHyper(members int) Problem {
	b := hypergraph.NewBuilder(1, 1)
	for i := 0; i < members; i++ {
		b.AddEdge(0, []int{0}, int64(10-2*i))
	}
	return Hyper(b.MustBuild())
}

// fakeLineup returns members solvers for stepHyper: member i records its
// start in started, runs hook(i) when set, and picks configuration i.
func fakeLineup(members int, started *[]int, hook func(i int)) ([]string, []*registry.Solver) {
	var mu sync.Mutex
	names := make([]string, members)
	solvers := make([]*registry.Solver, members)
	for i := range solvers {
		i := i
		names[i] = fmt.Sprintf("fake%d", i)
		solvers[i] = &registry.Solver{
			Name:  names[i],
			Class: registry.MultiProc,
			SolveHyper: func(_ context.Context, h *hypergraph.Hypergraph, _ registry.Options) (core.HyperAssignment, error) {
				mu.Lock()
				*started = append(*started, i)
				mu.Unlock()
				if hook != nil {
					hook(i)
				}
				return core.HyperAssignment{h.TaskEdges(0)[i]}, nil
			},
		}
	}
	return names, solvers
}

// TestRaceOneWorkerRunsInline: at one worker the members run in lineup
// order on the caller's goroutine, and the observer sees them in that
// order.
func TestRaceOneWorkerRunsInline(t *testing.T) {
	const members = 4
	var started []int
	names, solvers := fakeLineup(members, &started, nil)
	var seen []string
	obs := newObsState(func(inc Incumbent) { seen = append(seen, inc.Solver) }, time.Now())
	rep, err := raceMembers(context.Background(), stepHyper(members), Options{Workers: 1}, obs, solvers)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(started, []int{0, 1, 2, 3}) || !slices.Equal(seen, names) {
		t.Fatalf("members started %v, observer saw %v; want lineup order %v", started, seen, names)
	}
	if rep.Solver != names[members-1] {
		t.Fatalf("winner %q, want the last and best member %s", rep.Solver, names[members-1])
	}
}

// TestRaceOneWorkerCancelStopsBeforeNextMember: a context cancelled from
// inside the observer call for the first member's schedule ends the race
// before the second member starts, with the first member's schedule.
func TestRaceOneWorkerCancelStopsBeforeNextMember(t *testing.T) {
	const members = 3
	var started []int
	names, solvers := fakeLineup(members, &started, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := newObsState(func(Incumbent) { cancel() }, time.Now())
	rep, err := raceMembers(ctx, stepHyper(members), Options{Workers: 1}, obs, solvers)
	if err != nil {
		t.Fatalf("cancelled after the first member: %v, want its schedule", err)
	}
	if !slices.Equal(started, []int{0}) || rep.Solver != names[0] {
		t.Fatalf("members started %v, winner %q; want only %s", started, rep.Solver, names[0])
	}
}

// TestRaceMemberPanicIsItsError: a panicking member becomes that
// member's error at one worker and at several. The race still judges
// the others, and with no other candidate it returns the error.
func TestRaceMemberPanicIsItsError(t *testing.T) {
	for _, w := range []int{1, 4} {
		var started []int
		names, solvers := fakeLineup(3, &started, func(i int) {
			if i != 1 {
				panic("boom")
			}
		})
		p := stepHyper(3)
		rep, err := raceMembers(context.Background(), p, Options{Workers: w}, nil, solvers)
		if err != nil || rep.Solver != names[1] {
			t.Fatalf("workers=%d: report %v, err %v; want %s's schedule", w, rep, err, names[1])
		}
		_, err = raceMembers(context.Background(), p, Options{Workers: w}, nil, solvers[:1])
		if err == nil || !strings.Contains(err.Error(), names[0]+" panicked: boom") {
			t.Fatalf("workers=%d: lone panicking member: err %v, want its panic", w, err)
		}
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
