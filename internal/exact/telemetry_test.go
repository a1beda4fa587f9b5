package exact

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"semimatch/internal/telemetry"
)

// TestTelemetryDoesNotPerturbSearch pins the BENCH invariant the
// instrumentation must preserve: sequential node counts are bit-identical
// with and without a trace span and a progress hook attached.
func TestTelemetryDoesNotPerturbSearch(t *testing.T) {
	snapshotEveryCheckpoint(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		g := randomWeightedGraph(rng, 14, 4, 4, 30)
		var plain, traced SearchStats
		_, mPlain, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: &plain})
		if err != nil {
			t.Fatal(err)
		}
		tr := telemetry.StartSpan("solve")
		_, mTraced, err := SolveSingleProc(context.Background(), g, Options{
			Workers:  1,
			Stats:    &traced,
			Trace:    tr,
			Progress: func(telemetry.SearchProgress) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.End()
		if mPlain != mTraced {
			t.Fatalf("trial %d: makespan %d with telemetry vs %d without", trial, mTraced, mPlain)
		}
		if plain.Nodes != traced.Nodes {
			t.Fatalf("trial %d: node count %d with telemetry vs %d without — instrumentation perturbed the search",
				trial, traced.Nodes, plain.Nodes)
		}
	}

	rng = rand.New(rand.NewSource(8))
	for trial := 0; trial < 4; trial++ {
		h := randomHyper(rng, 11, 4, 3, 3, 25)
		var plain, traced SearchStats
		_, mPlain, err := SolveMultiProc(context.Background(), h, Options{Workers: 1, Stats: &plain})
		if err != nil {
			t.Fatal(err)
		}
		_, mTraced, err := SolveMultiProc(context.Background(), h, Options{
			Workers:  1,
			Stats:    &traced,
			Trace:    telemetry.StartSpan("solve"),
			Progress: func(telemetry.SearchProgress) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		if mPlain != mTraced || plain.Nodes != traced.Nodes {
			t.Fatalf("trial %d: (m=%d nodes=%d) with telemetry vs (m=%d nodes=%d) without",
				trial, mTraced, traced.Nodes, mPlain, plain.Nodes)
		}
	}
}

// TestTraceSpanTaxonomy asserts the engine emits the documented phase
// spans with their attributes, and that the phases cover the bulk of
// the solve.
func TestTraceSpanTaxonomy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomWeightedGraph(rng, 16, 4, 4, 40)
	tr := telemetry.StartSpan("exact")
	var stats SearchStats
	if _, _, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: &stats, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.End()

	kids := tr.Children()
	names := make(map[string]*telemetry.Span, len(kids))
	for _, c := range kids {
		names[c.Name] = c
	}
	for _, want := range []string{"compile", "greedy", "search"} {
		if names[want] == nil {
			t.Fatalf("missing %q span; have %d children", want, len(kids))
		}
	}
	var rb bool
	for _, c := range names["compile"].Children() {
		if c.Name == "root-bounds" {
			rb = true
		}
	}
	if !rb {
		t.Fatal("compile span has no root-bounds child")
	}
	ss := names["search"]
	nodes, ok := ss.Attr("nodes")
	if !ok || nodes.(int64) != stats.Nodes {
		t.Fatalf("search span nodes attr = %v (%v), stats say %d", nodes, ok, stats.Nodes)
	}
	if done, ok := ss.Attr("complete"); !ok || done != true {
		t.Fatalf("search span complete attr = %v (%v), want true for a finished search", done, ok)
	}
	if _, ok := ss.Attr("incumbent_entry"); !ok {
		t.Fatal("search span missing incumbent_entry")
	}
	if _, ok := ss.Attr("incumbent_exit"); !ok {
		t.Fatal("search span missing incumbent_exit")
	}
}

// TestProgressSnapshots asserts the parallel engine delivers monotone,
// well-formed snapshots, including the final one.
func TestProgressSnapshots(t *testing.T) {
	snapshotEveryCheckpoint(t)
	rng := rand.New(rand.NewSource(10))
	h := randomHyper(rng, 13, 4, 3, 3, 35)
	var mu sync.Mutex
	var snaps []telemetry.SearchProgress
	var stats SearchStats
	_, m, err := SolveMultiProc(context.Background(), h, Options{
		Workers: 4,
		Stats:   &stats,
		Progress: func(p telemetry.SearchProgress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	last := snaps[len(snaps)-1]
	if last.Nodes != stats.Nodes {
		t.Fatalf("final snapshot nodes = %d, stats = %d", last.Nodes, stats.Nodes)
	}
	if last.Incumbent != m {
		t.Fatalf("final snapshot incumbent = %d, makespan = %d", last.Incumbent, m)
	}
	if last.Workers != 4 {
		t.Fatalf("snapshot workers = %d", last.Workers)
	}
	prev := int64(-1)
	for i, s := range snaps {
		if s.Nodes < prev {
			t.Fatalf("snapshot %d nodes %d < previous %d", i, s.Nodes, prev)
		}
		prev = s.Nodes
		if s.Bound != stats.Bound {
			t.Fatalf("snapshot %d bound = %d, stats bound = %d", i, s.Bound, stats.Bound)
		}
	}
}

// snapshotEveryCheckpoint makes every checkpoint of the test's searches
// deliver a progress snapshot.
func snapshotEveryCheckpoint(t *testing.T) {
	t.Helper()
	old := progressEvery
	progressEvery = time.Nanosecond
	t.Cleanup(func() { progressEvery = old })
}
