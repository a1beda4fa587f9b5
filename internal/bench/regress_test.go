package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func perfCase(name string, workers int, nodes int64) PerfCase {
	solver := "BnB-MP"
	if workers != 1 {
		solver = "BnB-MP-Par"
	}
	return PerfCase{Case: name, Solver: solver, Workers: workers, Nodes: nodes}
}

func TestNodeRegressions(t *testing.T) {
	prev := &PerfReport{ParEngine: parEngineRounds, Cases: []PerfCase{
		perfCase("fam/seed=1", 1, 1000),
		perfCase("fam/seed=1", 4, 400),
		perfCase("fam/seed=2", 1, 2000),
		perfCase("gone/seed=1", 1, 50), // family removed since: ignored
	}}

	t.Run("equal and lower pass", func(t *testing.T) {
		cur := &PerfReport{ParEngine: parEngineRounds, Cases: []PerfCase{
			perfCase("fam/seed=1", 1, 1000), // equal is not a regression
			perfCase("fam/seed=1", 4, 400),
			perfCase("fam/seed=2", 1, 1999),
			perfCase("new/seed=1", 1, 1<<40), // no baseline: ignored
		}}
		if regs := NodeRegressions(prev, cur); len(regs) != 0 {
			t.Fatalf("unexpected regressions: %v", regs)
		}
	})

	t.Run("higher sequential count fails", func(t *testing.T) {
		cur := &PerfReport{ParEngine: parEngineRounds, Cases: []PerfCase{
			perfCase("fam/seed=1", 1, 1001),
			perfCase("fam/seed=2", 1, 2000),
		}}
		regs := NodeRegressions(prev, cur)
		if len(regs) != 1 {
			t.Fatalf("want exactly one regression, got %v", regs)
		}
		if !strings.Contains(regs[0], "fam/seed=1 (BnB-MP)") || !strings.Contains(regs[0], "1001") {
			t.Fatalf("regression line should name case, solver and count: %q", regs[0])
		}
	})

	// A parallel row is keyed apart from the sequential row of its case:
	// one more node on it is a regression even when the sequential row
	// improved.
	t.Run("higher parallel count fails", func(t *testing.T) {
		cur := &PerfReport{ParEngine: parEngineRounds, Cases: []PerfCase{
			perfCase("fam/seed=1", 1, 900),
			perfCase("fam/seed=1", 4, 401),
		}}
		regs := NodeRegressions(prev, cur)
		if len(regs) != 1 || !strings.Contains(regs[0], "fam/seed=1 (BnB-MP-Par)") {
			t.Fatalf("want one regression naming the parallel row, got %v", regs)
		}
	})

	// At one worker a parallel solver runs the sequential DFS, so its row
	// is compared only with another one-worker row, never with the
	// rounds baseline.
	t.Run("one-worker parallel row keyed as DFS", func(t *testing.T) {
		dfsPar := PerfCase{Case: "fam/seed=1", Solver: "BnB-MP-Par", Workers: 1, Nodes: 1000}
		cur := &PerfReport{ParEngine: parEngineRounds, Cases: []PerfCase{dfsPar}}
		if regs := NodeRegressions(prev, cur); len(regs) != 0 {
			t.Fatalf("one-worker row compared with the rounds baseline: %v", regs)
		}
		worse := dfsPar
		worse.Nodes++
		regs := NodeRegressions(cur, &PerfReport{ParEngine: parEngineRounds, Cases: []PerfCase{worse}})
		if len(regs) != 1 || !strings.Contains(regs[0], "fam/seed=1 (BnB-MP-Par)") {
			t.Fatalf("want one regression between one-worker rows, got %v", regs)
		}
	})

	// Reports from the work-stealing pool carry no ParEngine: their
	// parallel node counts varied from run to run, so neither side of a
	// comparison with one is gated.
	t.Run("work-stealing parallel rows never flagged", func(t *testing.T) {
		old := &PerfReport{Cases: prev.Cases}
		cur := &PerfReport{ParEngine: parEngineRounds, Cases: []PerfCase{
			perfCase("fam/seed=1", 1, 900),
			perfCase("fam/seed=1", 4, 1<<40),
		}}
		if regs := NodeRegressions(old, cur); len(regs) != 0 {
			t.Fatalf("parallel row flagged against a pool report: %v", regs)
		}
		if regs := NodeRegressions(prev, old); len(regs) != 0 {
			t.Fatalf("pool report's parallel row flagged: %v", regs)
		}
	})
}

func TestReadPerfJSONRoundTrip(t *testing.T) {
	rep, err := RunPerf(context.Background(), tinyPerfOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePerfJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPerfJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cases) != len(rep.Cases) {
		t.Fatalf("round-trip lost cases: %d vs %d", len(back.Cases), len(rep.Cases))
	}
	// A re-run of the same grid must never regress against itself:
	// sequential and parallel node counts are deterministic.
	if regs := NodeRegressions(back, rep); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
	if _, err := ReadPerfJSON(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ReadPerfJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed payload accepted")
	}
}

// Every committed report must stay readable: -max-nodes-regress loads
// the latest one, and the perf trajectory in EXPERIMENTS.md cites them
// all, including those written before PerfCase dropped its
// work-stealing counters.
func TestReadPerfJSONCommittedReports(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "../../BENCH.json")
	if len(paths) < 9 {
		t.Fatalf("found %d committed reports, want BENCH.json and BENCH_1..8 at least: %v", len(paths), paths)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ReadPerfJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(rep.Cases) == 0 {
			t.Fatalf("%s: no cases", path)
		}
		if regs := NodeRegressions(rep, rep); len(regs) != 0 {
			t.Fatalf("%s: regresses against itself: %v", path, regs)
		}
	}
}
