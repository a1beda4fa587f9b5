package session

import (
	"context"
	"fmt"
	"testing"

	"semimatch/internal/solve"
)

// TestColdNodesMatchFullColdSolve holds the cold comparison to the
// measurement it replaces: a full cold re-solve of the event's instance
// (solve.RunOptions without a warm start) and its Stats.Nodes. Every event
// of generated scripts must report the same count, for MULTIPROC, weighted
// SINGLEPROC and unit SINGLEPROC sessions, with the exact stage disabled,
// at its default task limit and at a raised one.
func TestColdNodesMatchFullColdSolve(t *testing.T) {
	events := 120
	if testing.Short() {
		events = 60
	}
	kinds := []struct {
		name  string
		multi bool
		maxW  int64
	}{
		{"multiproc", true, 30},
		{"singleproc-weighted", false, 30},
		{"singleproc-unit", false, 1},
	}
	for _, k := range kinds {
		for _, limit := range []int{-1, 0, 24} {
			t.Run(fmt.Sprintf("%s/limit=%d", k.name, limit), func(t *testing.T) {
				opts := Options{Procs: 4, Multi: k.multi, Lambda: 1, Workers: 1, ExactTaskLimit: limit, CompareCold: true}
				s, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				script := GenerateScript(ScriptOptions{Seed: 13, Events: events, Procs: 4, Multi: k.multi, MaxWeight: k.maxW})
				var cold int64
				for _, rep := range replay(t, s, script) {
					if rep.Report == nil {
						continue
					}
					ref, err := solve.RunOptions(context.Background(), rep.Problem, solve.Options{
						Workers: opts.Workers, ExactTaskLimit: opts.ExactTaskLimit,
					})
					if ref == nil {
						t.Fatalf("seq %d: reference cold solve: %v", rep.Seq, err)
					}
					if rep.ColdNodes != ref.Stats.Nodes {
						t.Fatalf("seq %d (%d tasks): cold nodes %d, full cold solve %d",
							rep.Seq, rep.Tasks, rep.ColdNodes, ref.Stats.Nodes)
					}
					cold += rep.ColdNodes
				}
				// Only sessions whose instances get a branch-and-bound
				// search can count nodes: weighted ones with the exact
				// stage on.
				if searches := limit >= 0 && k.maxW > 1; searches != (cold > 0) {
					t.Fatalf("%d cold nodes over the script", cold)
				}
			})
		}
	}
}

// TestSessionEventAllocationBudget keeps a BenchmarkSessionEvent-shaped
// event lean: a 200-event MULTIPROC script on 4 processors, λ = 1, the
// cold comparison on, one worker. A full cold re-solve per event (heuristic
// race, exact stage and certificate: about 370 allocations per event on
// this script) fails here; the cold exact search alone stays under the
// budget. Events run under a cancellable context, as semiserve applies
// them under the request's context.
func TestSessionEventAllocationBudget(t *testing.T) {
	const (
		events    = 200
		maxAllocs = 170
	)
	script := GenerateScript(ScriptOptions{Seed: 0, Events: events, Procs: 4, Multi: true, MaxWeight: 30})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func() {
		s, err := New(Options{Procs: 4, Multi: true, Lambda: 1, CompareCold: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range script {
			if _, err := s.Apply(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}
	if perEvent := testing.AllocsPerRun(2, run) / events; perEvent > maxAllocs {
		t.Errorf("a session event allocates %.0f times, budget %d", perEvent, maxAllocs)
	}
}
