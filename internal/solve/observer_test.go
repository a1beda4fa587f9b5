package solve

import (
	"context"
	"testing"

	"semimatch/internal/core"
)

// collectIncumbents runs p with an observer appending every observation
// to a plain slice — deliberately without a lock: the Observer contract
// says calls are serialized, and the -race CI job on this package turns
// any violation (two workers delivering concurrently) into a failure.
func collectIncumbents(t *testing.T, p Problem, opts ...Option) ([]Incumbent, *Report) {
	t.Helper()
	var events []Incumbent
	opts = append(opts, WithObserver(func(inc Incumbent) {
		events = append(events, inc)
	}))
	rep, err := Run(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return events, rep
}

// checkContract asserts the full observer contract on one run's event
// stream: at least the initial incumbent plus the final event, makespans
// monotonically non-increasing, exactly one Final event in last
// position, and the final observation matching the returned Report.
func checkContract(t *testing.T, p Problem, events []Incumbent, rep *Report) {
	t.Helper()
	if len(events) < 2 {
		t.Fatalf("got %d observations, want at least initial + final", len(events))
	}
	if rep.Incumbents != len(events) {
		t.Fatalf("Report.Incumbents = %d, delivered %d", rep.Incumbents, len(events))
	}
	finals := 0
	for i, inc := range events {
		if i > 0 && inc.Makespan > events[i-1].Makespan {
			t.Fatalf("observation %d increased: %d after %d", i, inc.Makespan, events[i-1].Makespan)
		}
		if inc.Final {
			finals++
			if i != len(events)-1 {
				t.Fatalf("Final observation at position %d of %d", i, len(events))
			}
		}
		if inc.Solver == "" {
			t.Fatalf("observation %d has no solver name", i)
		}
		// Every observed incumbent must be a valid schedule with the
		// reported makespan.
		m, _ := p.MakespanLoads(inc.Assignment)
		if m != inc.Makespan {
			t.Fatalf("observation %d: reported makespan %d, assignment yields %d", i, inc.Makespan, m)
		}
		var err error
		if h := p.Hypergraph(); h != nil {
			err = core.ValidateHyperAssignment(h, core.HyperAssignment(inc.Assignment))
		} else {
			err = core.ValidateAssignment(p.Graph(), core.Assignment(inc.Assignment))
		}
		if err != nil {
			t.Fatalf("observation %d invalid: %v", i, err)
		}
	}
	if finals != 1 {
		t.Fatalf("%d Final observations, want exactly 1", finals)
	}
	last := events[len(events)-1]
	if last.Makespan != rep.Makespan {
		t.Fatalf("final observation %d, report makespan %d", last.Makespan, rep.Makespan)
	}
	lm, _ := p.MakespanLoads(last.Assignment)
	rm, _ := p.MakespanLoads(rep.Assignment)
	if lm != rm {
		t.Fatal("final observation's assignment differs from the report's in makespan")
	}
}

// TestObserverParallelBnB is the race test of the observer contract: a
// hard seeded instance under the work-stealing pool, where incumbent
// improvements arrive from many workers and must still be delivered
// serialized and monotonically. Run with -race in CI.
func TestObserverParallelBnB(t *testing.T) {
	h := hardHyper(3)
	p := Hyper(h)
	events, rep := collectIncumbents(t, p,
		WithAlgorithm("bnb-par"), WithWorkers(4), WithNodeBudget(400_000))
	checkContract(t, p, events, rep)
	if rep.Status != StatusHeuristic {
		t.Fatalf("status %v, want heuristic (hard instance, tiny budget, no deadline)", rep.Status)
	}
	// The acceptance bar: on a hard instance the observer hears about an
	// incumbent before the run completes, i.e. at least one non-final
	// observation precedes the final one.
	if events[0].Final {
		t.Fatal("no incumbent observed before completion")
	}
}

// TestObserverSequentialBnB: same contract on the sequential engines,
// both classes.
func TestObserverSequentialBnB(t *testing.T) {
	h := hardHyper(4)
	p := Hyper(h)
	events, rep := collectIncumbents(t, p, WithAlgorithm("BnB-MP"), WithNodeBudget(300_000))
	checkContract(t, p, events, rep)

	g := weightedGraph(9, 22, 4, 4, 1_000_000)
	pg := Bipartite(g)
	eventsSP, repSP := collectIncumbents(t, pg, WithAlgorithm("BnB-SP"), WithNodeBudget(300_000))
	checkContract(t, pg, eventsSP, repSP)
}

// TestObserverAutoPolicy: the auto policy streams portfolio member
// completions and exact-stage incumbents through one monotonic stream.
func TestObserverAutoPolicy(t *testing.T) {
	h := randomHyper(21, 14, 4, 3, 3, 9)
	p := Hyper(h)
	events, rep := collectIncumbents(t, p, WithRefine())
	checkContract(t, p, events, rep)

	g := weightedGraph(22, 14, 4, 3, 9)
	pg := Bipartite(g)
	eventsSP, repSP := collectIncumbents(t, pg)
	checkContract(t, pg, eventsSP, repSP)
}

// TestObserverPanicIsolated: a panicking observer must not take down the
// solve — every delivery is isolated, later deliveries still happen, and
// the report is unaffected.
func TestObserverPanicIsolated(t *testing.T) {
	h := hardHyper(5)
	calls := 0
	rep, err := Run(context.Background(), Hyper(h),
		WithAlgorithm("bnb-par"), WithWorkers(2), WithNodeBudget(200_000),
		WithObserver(func(inc Incumbent) {
			calls++
			panic("observer exploded")
		}))
	if err != nil {
		t.Fatalf("observer panic leaked into Run: %v", err)
	}
	if calls < 2 {
		t.Fatalf("panicking observer silenced after %d call(s); want deliveries to continue", calls)
	}
	if rep.Incumbents != calls {
		t.Fatalf("Report.Incumbents = %d, calls = %d", rep.Incumbents, calls)
	}
	checkReport(t, Hyper(h), rep)
}

// TestObserverZeroOverheadWhenAbsent: no observer, no observations
// counted.
func TestObserverZeroOverheadWhenAbsent(t *testing.T) {
	h := randomHyper(31, 10, 3, 3, 2, 5)
	rep, err := Run(context.Background(), Hyper(h))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incumbents != 0 {
		t.Fatalf("Incumbents = %d without an observer", rep.Incumbents)
	}
}
