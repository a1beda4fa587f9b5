package registry

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
)

// wantCatalog is the complete expected catalog, in registration order. A
// new algorithm must be added here too — the test is the "registered
// exactly once" ledger for every exported algorithm of the repo.
var wantCatalog = []struct {
	name  string
	class Class
	kind  Kind
}{
	{"basic", SingleProc, Heuristic},
	{"sorted", SingleProc, Heuristic},
	{"double", SingleProc, Heuristic},
	{"expected", SingleProc, Heuristic},
	{"LPT", SingleProc, Heuristic},
	{"ExactUnit", SingleProc, Exact},
	{"Harvey", SingleProc, Exact},
	{"BnB-SP", SingleProc, Exact},
	{"BnB-SP-Par", SingleProc, Exact},
	{"OnlineGreedy", SingleProc, Online},
	{"SGH", MultiProc, Heuristic},
	{"VGH", MultiProc, Heuristic},
	{"EGH", MultiProc, Heuristic},
	{"EVG", MultiProc, Heuristic},
	{"EGH-X", MultiProc, Heuristic},
	{"EVG-X", MultiProc, Heuristic},
	{"BnB-MP", MultiProc, Exact},
	{"BnB-MP-Par", MultiProc, Exact},
}

func TestCatalogCompleteAndRegisteredOnce(t *testing.T) {
	solvers := Solvers()
	if len(solvers) != len(wantCatalog) {
		t.Fatalf("catalog has %d solvers, want %d: %v", len(solvers), len(wantCatalog), Names(solvers))
	}
	seen := map[string]int{}
	for i, s := range solvers {
		w := wantCatalog[i]
		if s.Name != w.name || s.Class != w.class || s.Kind != w.kind {
			t.Errorf("catalog[%d] = %s/%v/%v, want %s/%v/%v", i, s.Name, s.Class, s.Kind, w.name, w.class, w.kind)
		}
		seen[s.Name]++
		if (s.SolveSingle != nil) == (s.SolveHyper != nil) {
			t.Errorf("%s: must have exactly one solve function", s.Name)
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("%s registered %d times, want exactly once", name, n)
		}
	}
}

func TestListingOrderDeterministic(t *testing.T) {
	a, b := Names(Solvers()), Names(Solvers())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("listing order not stable: %v vs %v", a, b)
	}
	// The default heuristic lineups are the paper's fixed table orders.
	if got, want := Names(Heuristics(MultiProc)), []string{"SGH", "VGH", "EGH", "EVG"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MULTIPROC heuristics = %v, want %v", got, want)
	}
	if got, want := Names(Heuristics(SingleProc)), []string{"basic", "sorted", "double", "expected"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SINGLEPROC heuristics = %v, want %v", got, want)
	}
}

func TestAliasesResolve(t *testing.T) {
	cases := []struct {
		class Class
		alias string
		want  string
	}{
		{MultiProc, "sgh", "SGH"},
		{MultiProc, "expected-vector-greedy", "EVG"},
		{MultiProc, "exact", "BnB-MP"},
		{MultiProc, "bnb", "BnB-MP"},
		{SingleProc, "exact", "ExactUnit"},
		{SingleProc, "bnb", "BnB-SP"},
		{SingleProc, "BASIC", "basic"},
		{SingleProc, "online", "OnlineGreedy"},
	}
	for _, c := range cases {
		s, err := LookupClass(c.class, c.alias)
		if err != nil {
			t.Errorf("LookupClass(%v, %q): %v", c.class, c.alias, err)
			continue
		}
		if s.Name != c.want {
			t.Errorf("LookupClass(%v, %q) = %s, want %s", c.class, c.alias, s.Name, c.want)
		}
	}
	// Global lookup: unambiguous names resolve, class-ambiguous aliases
	// error out naming both candidates.
	if s, err := Lookup("evg"); err != nil || s.Name != "EVG" {
		t.Errorf("Lookup(evg) = %v, %v", s, err)
	}
	if _, err := Lookup("bnb"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Lookup(bnb) should be an ambiguity error, got %v", err)
	}
}

func TestUnknownNameSuggests(t *testing.T) {
	_, err := LookupClass(MultiProc, "SGX")
	if err == nil {
		t.Fatal("unknown name must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"SGX"`) {
		t.Errorf("error should quote the offender: %v", msg)
	}
	if !strings.Contains(msg, "did you mean") || !strings.Contains(msg, "SGH") {
		t.Errorf("error should suggest SGH: %v", msg)
	}
	if !strings.Contains(msg, "known:") {
		t.Errorf("error should enumerate the class catalog: %v", msg)
	}
	// No near match: still enumerates, no bogus suggestion clause.
	_, err = LookupClass(SingleProc, "zzzzzzzz")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off name should not get suggestions: %v", err)
	}
}

// TestEverySolverSolves wires each catalog entry to a tiny instance and
// checks it produces a valid schedule.
func TestEverySolverSolves(t *testing.T) {
	gb := bipartite.NewBuilder(3, 2)
	gb.AddEdge(0, 0)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 0)
	gb.AddEdge(2, 1)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	hb := hypergraph.NewBuilder(2, 2)
	hb.AddEdge(0, []int{0}, 2)
	hb.AddEdge(0, []int{0, 1}, 1)
	hb.AddEdge(1, []int{1}, 3)
	h, err := hb.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, s := range Solvers() {
		switch s.Class {
		case SingleProc:
			a, err := s.SolveSingle(ctx, g, exact.Options{})
			if err != nil {
				t.Errorf("%s: %v", s.Name, err)
				continue
			}
			if err := core.ValidateAssignment(g, a); err != nil {
				t.Errorf("%s: invalid assignment: %v", s.Name, err)
			}
		case MultiProc:
			a, err := s.SolveHyper(ctx, h, exact.Options{})
			if err != nil {
				t.Errorf("%s: %v", s.Name, err)
				continue
			}
			if err := core.ValidateHyperAssignment(h, a); err != nil {
				t.Errorf("%s: invalid assignment: %v", s.Name, err)
			}
		}
	}
}

// TestExactUnitCancelledKeepsIncumbent: under an already-ended context
// ExactUnit answers at once with a valid schedule (sorted-greedy's) and
// an error wrapping exact.ErrCancelled and the context's error, which
// IncumbentError accepts, so the schedule is kept rather than discarded.
func TestExactUnitCancelledKeepsIncumbent(t *testing.T) {
	b := bipartite.NewBuilder(6, 3)
	for task := 0; task < 6; task++ {
		b.AddEdge(task, task%3)
		b.AddEdge(task, (task+1)%3)
	}
	g := b.MustBuild()
	s, err := LookupClass(SingleProc, "ExactUnit")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := s.SolveSingle(ctx, g, exact.Options{})
	if !IncumbentError(err) || !errors.Is(err, exact.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want one wrapping exact.ErrCancelled and context.Canceled", err)
	}
	if err := core.ValidateAssignment(g, a); err != nil {
		t.Fatalf("incumbent: %v", err)
	}
}
