package sched

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"semimatch/internal/cert"
	"semimatch/internal/exact"
	"semimatch/internal/registry"
	"semimatch/internal/solve"
)

// cluster builds a small heterogeneous instance: two CPUs and a GPU;
// tasks may run on one CPU slowly or on CPU+GPU together faster.
func cluster() *Instance {
	in := NewInstance("cpu0", "cpu1", "gpu")
	in.AddTask("render",
		Config{Procs: []int{0}, Time: 8},
		Config{Procs: []int{1}, Time: 8},
		Config{Procs: []int{0, 2}, Time: 3})
	in.AddTask("encode",
		Config{Procs: []int{1}, Time: 6},
		Config{Procs: []int{1, 2}, Time: 2})
	in.AddTask("archive",
		Config{Procs: []int{0}, Time: 4},
		Config{Procs: []int{1}, Time: 4})
	return in
}

func TestHypergraphConversion(t *testing.T) {
	in := cluster()
	h, err := in.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	if h.NTasks != 3 || h.NProcs != 3 || h.NumEdges() != 7 {
		t.Fatalf("conversion sizes wrong: %d %d %d", h.NTasks, h.NProcs, h.NumEdges())
	}
	if h.Unit() {
		t.Fatal("weighted instance must not be unit")
	}
}

func TestConversionErrors(t *testing.T) {
	in := NewInstance("p0")
	in.AddTask("empty")
	if _, err := in.Hypergraph(); err == nil {
		t.Fatal("task without configurations accepted")
	}
	in2 := NewInstance("p0")
	in2.AddTask("bad", Config{Procs: []int{0}, Time: 0})
	if _, err := in2.Hypergraph(); err == nil {
		t.Fatal("zero time accepted")
	}
}

func TestSolveAllAlgorithms(t *testing.T) {
	in := cluster()
	var exactM int64
	for _, alg := range []Algorithm{SortedGreedy, ExpectedGreedy, VectorGreedy, ExpectedVectorGreedy, Exact} {
		s, err := Solve(in, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(s.Choice) != 3 {
			t.Fatalf("%v: choice len %d", alg, len(s.Choice))
		}
		if s.Makespan < 1 {
			t.Fatalf("%v: makespan %d", alg, s.Makespan)
		}
		if alg == Exact {
			exactM = s.Makespan
			if !s.Optimal() {
				t.Fatal("exact must mark Optimal")
			}
		}
	}
	// Exact is a lower bound for every heuristic.
	for _, alg := range []Algorithm{SortedGreedy, ExpectedGreedy, VectorGreedy, ExpectedVectorGreedy} {
		s, err := Solve(in, alg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan < exactM {
			t.Fatalf("%v beat the exact optimum: %d < %d", alg, s.Makespan, exactM)
		}
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	if _, err := Solve(cluster(), Algorithm(42)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		SortedGreedy: "SGH", ExpectedGreedy: "EGH", VectorGreedy: "VGH",
		ExpectedVectorGreedy: "EVG", Exact: "exact",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestSimulateAndValidate(t *testing.T) {
	s, err := Solve(cluster(), Exact)
	if err != nil {
		t.Fatal(err)
	}
	tl := s.Simulate()
	if err := tl.Validate(s); err != nil {
		t.Fatal(err)
	}
	if tl.Span != s.Makespan {
		t.Fatalf("span %d != makespan %d", tl.Span, s.Makespan)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s, err := Solve(cluster(), SortedGreedy)
	if err != nil {
		t.Fatal(err)
	}
	tl := s.Simulate()
	// Introduce an overlap.
	for p := range tl.Slots {
		if len(tl.Slots[p]) >= 2 {
			tl.Slots[p][1].Start = tl.Slots[p][0].Start
			tl.Slots[p][1].End = tl.Slots[p][1].Start + (tl.Slots[p][1].End - tl.Slots[p][1].Start)
			if err := tl.Validate(s); err == nil {
				t.Fatal("overlap not detected")
			}
			return
		}
	}
	t.Skip("no processor with two slots in this schedule")
}

func TestGanttOutput(t *testing.T) {
	s, err := Solve(cluster(), ExpectedVectorGreedy)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.Simulate().Gantt(&sb, s)
	out := sb.String()
	if !strings.Contains(out, "cpu0") || !strings.Contains(out, "gpu") {
		t.Fatalf("Gantt missing processor names:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Fatalf("Gantt missing header:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("want 1 header + 3 processor rows:\n%s", out)
	}
}

func TestLoadReport(t *testing.T) {
	s, err := Solve(cluster(), Exact)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.LoadReport()
	if len(rep) != 3 {
		t.Fatalf("report: %v", rep)
	}
	// First entry is the bottleneck: must contain the makespan value.
	if !strings.Contains(rep[0], ":") {
		t.Fatalf("report format: %v", rep)
	}
}

// randomInstance draws 2–6 processors and 1–maxTasks tasks of 1–3
// configurations, each on a random processor subset for 1–9 time units.
func randomInstance(rng *rand.Rand, maxTasks int) *Instance {
	nProcs := 2 + rng.Intn(5)
	names := make([]string, nProcs)
	for i := range names {
		names[i] = "p"
	}
	in := NewInstance(names...)
	nTasks := 1 + rng.Intn(maxTasks)
	for t := 0; t < nTasks; t++ {
		nCfg := 1 + rng.Intn(3)
		cfgs := make([]Config, nCfg)
		for j := range cfgs {
			k := 1 + rng.Intn(nProcs)
			cfgs[j] = Config{Procs: rng.Perm(nProcs)[:k], Time: 1 + rng.Int63n(9)}
		}
		in.AddTask("t", cfgs...)
	}
	return in
}

func TestPropertySimulationSpanEqualsMakespan(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(rand.New(rand.NewSource(seed)), 12)
		for _, alg := range []Algorithm{SortedGreedy, ExpectedGreedy, VectorGreedy, ExpectedVectorGreedy} {
			s, err := Solve(in, alg)
			if err != nil {
				return false
			}
			tl := s.Simulate()
			if tl.Validate(s) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveByNameMatchesRun: for every MULTIPROC registry name and alias,
// the scheduling front end gives the answer of Run with that algorithm —
// the same choice, makespan and status — on seeded small instances, and
// its schedule simulates to a valid timeline and carries a certificate
// that verifies.
func TestSolveByNameMatchesRun(t *testing.T) {
	var names []string
	for _, sol := range registry.ByClass(registry.MultiProc) {
		names = append(names, sol.Name)
		names = append(names, sol.Aliases...)
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 20; i++ {
		in := randomInstance(rng, 8)
		h, err := in.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			s, err := SolveByName(in, name)
			if err != nil {
				t.Fatalf("instance %d, %s: %v", i, name, err)
			}
			rep, err := solve.Run(context.Background(), solve.Hyper(h), solve.WithAlgorithm(name))
			if err != nil {
				t.Fatalf("instance %d, %s: Run: %v", i, name, err)
			}
			for task, e := range rep.Assignment {
				if h.TaskEdges(task)[s.Choice[task]] != e {
					t.Fatalf("instance %d, %s: task %d takes configuration %d, Run takes hyperedge %d",
						i, name, task, s.Choice[task], e)
				}
			}
			if s.Makespan != rep.Makespan || s.Status != rep.Status {
				t.Fatalf("instance %d, %s: makespan %d (%v), Run %d (%v)",
					i, name, s.Makespan, s.Status, rep.Makespan, rep.Status)
			}
			if err := s.Simulate().Validate(s); err != nil {
				t.Fatalf("instance %d, %s: %v", i, name, err)
			}
			tier, err := cert.Verify(h, s.Certificate)
			if err != nil || s.Optimal() && tier < cert.TierAttested {
				t.Fatalf("instance %d, %s: certificate verifies at %v (%v), status %v", i, name, tier, err, s.Status)
			}
		}
	}
}

// TestNamedExactBudgetStop pins the named exact contract: a search that
// stops at its node budget is an error wrapping exact.ErrLimit unless the
// certificate proves its incumbent optimal anyway, in which case the
// schedule is served as optimal. Heuristics are never refused.
func TestNamedExactBudgetStop(t *testing.T) {
	const budget = 20
	rng := rand.New(rand.NewSource(7))
	stopped := 0
	for i := 0; i < 40; i++ {
		in := randomInstance(rng, 14)
		h, err := in.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"BnB-MP", "BnB-MP-Par", "EVG"} {
			o := solve.Options{Algorithm: name, NodeBudget: budget, Workers: 2}
			rep, err := solve.RunOptions(context.Background(), solve.Hyper(h), o)
			if err != nil {
				t.Fatal(err)
			}
			s, err := solveOptions(in, o)
			refused := name != "EVG" && !rep.Optimal()
			switch {
			case refused && !errors.Is(err, exact.ErrLimit):
				t.Fatalf("instance %d, %s: unproven schedule (status %v) served: %v", i, name, rep.Status, err)
			case refused:
				stopped++
			case err != nil:
				t.Fatalf("instance %d, %s: %v", i, name, err)
			case s.Status != rep.Status || s.Makespan != rep.Makespan:
				t.Fatalf("instance %d, %s: makespan %d (%v), Run %d (%v)", i, name, s.Makespan, s.Status, rep.Makespan, rep.Status)
			}
		}
	}
	if stopped == 0 {
		t.Fatalf("no search stopped at %d nodes; the test needs harder instances", budget)
	}
}
