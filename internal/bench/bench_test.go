package bench

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"semimatch/internal/gen"
)

// quickOpts keeps harness tests CI-sized.
var quickOpts = Options{Quick: true, Seeds: 2}

// tinySizes is a reduced grid for assertions that don't need the paper's
// scale (format, naming, option plumbing). P stays at 128 because the
// two-stage generator needs a processor per group for the G=128 families;
// the "5-1" label is kept so instance names match the real grid's.
var tinySizes = []SizeRow{
	{"5-1", 640, 128},
}

// tableOpts returns CI-sized options normally and tiny ones under -short,
// for tests whose assertions hold at any instance scale.
func tableOpts() Options {
	if testing.Short() {
		return Options{Seeds: 2, SizesOverride: tinySizes}
	}
	return quickOpts
}

func TestRunHyperTableUnitQuick(t *testing.T) {
	opts := tableOpts()
	res, err := RunHyperTable(context.Background(), gen.Unit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Families)*len(opts.sizes()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.LB < 1 {
			t.Fatalf("%s: LB %v", r.Name, r.LB)
		}
		for _, a := range HyperAlgorithms {
			q := r.Quality[a]
			if q < 1.0 {
				t.Fatalf("%s %s: quality %v < 1 (heuristic below the lower bound)", r.Name, a, q)
			}
			if q > 50 {
				t.Fatalf("%s %s: quality %v absurd", r.Name, a, q)
			}
		}
	}
	// Naming convention.
	if !strings.HasPrefix(res.Rows[0].Name, "FG-") || !strings.HasSuffix(res.Rows[0].Name, "-MP") {
		t.Fatalf("unit name = %q", res.Rows[0].Name)
	}
}

func TestRunHyperTableWeightedNames(t *testing.T) {
	// Only the naming convention is under test — tiny instances suffice.
	tiny := Options{Seeds: 1, SizesOverride: tinySizes[:1]}
	res, err := RunHyperTable(context.Background(), gen.Related, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Rows[0].Name, "-MP-W") {
		t.Fatalf("weighted name = %q", res.Rows[0].Name)
	}
	res2, err := RunHyperTable(context.Background(), gen.Random, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res2.Rows[0].Name, "-MP-R") {
		t.Fatalf("random name = %q", res2.Rows[0].Name)
	}
}

// qualityJSON is a table's JSON form without its wall times, the part
// of a run that must not depend on how it was scheduled.
func qualityJSON(t *testing.T, table any) string {
	t.Helper()
	switch tb := table.(type) {
	case *HyperTableJSON:
		tb.AvgTimeS = nil
		for i := range tb.Rows {
			tb.Rows[i].TimeS = nil
		}
	case *SPTableJSON:
		tb.AvgTimeS = nil
		for i := range tb.Rows {
			tb.Rows[i].TimeS, tb.Rows[i].ExactTimeS = nil, 0
		}
	}
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestWorkersMatchHyperQuality(t *testing.T) {
	// The worker count may not change the results, only speed — an
	// identity that holds at any scale, so tiny instances suffice. Ten seeds a row give the averages an order of
	// summation to depend on; -short keeps two.
	tiny := Options{Seeds: 10, SizesOverride: tinySizes, Workers: 1}
	if testing.Short() {
		tiny.Seeds = 2
	}
	run := func() string {
		res, err := RunHyperTable(context.Background(), gen.Related, tiny)
		if err != nil {
			t.Fatal(err)
		}
		return qualityJSON(t, res.JSON("3"))
	}
	want := run()
	tiny.Workers = 4
	if got := run(); got != want {
		t.Fatalf("4 workers:\n%s\n1 worker:\n%s", got, want)
	}
}

func TestFormatHyperOutputs(t *testing.T) {
	res, err := RunHyperTable(context.Background(), gen.Unit, Options{Seeds: 1, SizesOverride: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	statsOut := FormatHyperStats(res)
	if !strings.Contains(statsOut, "|N|") || !strings.Contains(statsOut, "FG-5-1-MP") {
		t.Fatalf("stats output:\n%s", statsOut)
	}
	tableOut := FormatHyperTable(res)
	for _, a := range HyperAlgorithms {
		if !strings.Contains(tableOut, a) {
			t.Fatalf("table output missing %s:\n%s", a, tableOut)
		}
	}
	if !strings.Contains(tableOut, "Average quality") || !strings.Contains(tableOut, "Average time") {
		t.Fatalf("table output missing summary:\n%s", tableOut)
	}
}

func TestRunHyperTableCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunHyperTable(ctx, gen.Unit, Options{Seeds: 1, SizesOverride: tinySizes})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunSingleProcQuick(t *testing.T) {
	opts := tableOpts()
	for _, generator := range []gen.Generator{gen.FewgManyg, gen.HiLo} {
		res, err := RunSingleProc(context.Background(), generator, 5, 32, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(opts.sizes()) {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		for _, r := range res.Rows {
			if r.Opt < 1 {
				t.Fatalf("%s: OPT %v", r.Name, r.Opt)
			}
			for _, a := range SPAlgorithms {
				if r.Quality[a] < 1.0 {
					t.Fatalf("%s %s: quality %v < 1 (heuristic beat the exact optimum)", r.Name, a, r.Quality[a])
				}
			}
		}
		out := FormatSPTable(res)
		if !strings.Contains(out, "OPT") || !strings.Contains(out, "expected") {
			t.Fatalf("SP table output:\n%s", out)
		}
		// The worker count changes no result, averages included.
		byWorkers := map[int]string{}
		for _, w := range []int{1, 4} {
			o := opts
			o.Workers = w
			res, err := RunSingleProc(context.Background(), generator, 5, 32, o)
			if err != nil {
				t.Fatal(err)
			}
			byWorkers[w] = qualityJSON(t, res.JSON())
		}
		if byWorkers[1] != byWorkers[4] {
			t.Fatalf("4 workers:\n%s\n1 worker:\n%s", byWorkers[4], byWorkers[1])
		}
	}
}

func TestRunSingleProcDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := RunSingleProc(ctx, gen.FewgManyg, 5, 32, Options{Seeds: 1, SizesOverride: tinySizes})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSortedNotWorseThanBasicOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("replication test needs paper-scale instances")
	}
	// The paper's central SINGLEPROC claim: sorting improves basic-greedy.
	res, err := RunSingleProc(context.Background(), gen.FewgManyg, 5, 32, Options{Quick: true, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgQual["sorted"] > res.AvgQual["basic"]+1e-9 {
		t.Fatalf("sorted (%v) worse than basic (%v)", res.AvgQual["sorted"], res.AvgQual["basic"])
	}
}

func TestOptionsDefaults(t *testing.T) {
	if (Options{}).seeds() != 10 {
		t.Fatal("default seeds must be 10")
	}
	if (Options{Quick: true}).seeds() != 3 {
		t.Fatal("quick seeds must be 3")
	}
	if (Options{Seeds: 4}).seeds() != 4 {
		t.Fatal("explicit seeds")
	}
	if (Options{}).workers() < 1 {
		t.Fatal("workers must be >= 1")
	}
	if len((Options{Quick: true}).sizes()) >= len((Options{}).sizes()) {
		t.Fatal("quick grid must be smaller")
	}
}

// The harness used to panic on unknown algorithm names; now they resolve
// through the registry and come back as suggested-names errors before any
// job runs.
func TestUnknownAlgorithmIsError(t *testing.T) {
	opts := Options{Seeds: 1, SizesOverride: tinySizes, Algorithms: []string{"SGH", "nope"}}
	if _, err := RunHyperTable(context.Background(), gen.Unit, opts); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("RunHyperTable should name the unknown algorithm, got %v", err)
	}
	if _, err := RunSingleProc(context.Background(), gen.FewgManyg, 10, 32, opts); err == nil || !strings.Contains(err.Error(), `"SGH"`) {
		t.Fatalf("RunSingleProc should reject the MULTIPROC-only name, got %v", err)
	}
}

// Aliases and auxiliary solvers are addressable as table columns, and the
// result records the canonical column order it ran with.
func TestAlgorithmsOverrideResolvesAliases(t *testing.T) {
	opts := Options{Seeds: 1, SizesOverride: tinySizes, Algorithms: []string{"sgh", "evg-exact"}}
	res, err := RunHyperTable(context.Background(), gen.Unit, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SGH", "EVG-X"}
	if len(res.Algorithms) != 2 || res.Algorithms[0] != want[0] || res.Algorithms[1] != want[1] {
		t.Fatalf("Algorithms = %v, want %v", res.Algorithms, want)
	}
	for _, r := range res.Rows {
		for _, name := range want {
			if r.Quality[name] < 1 {
				t.Fatalf("%s: %s quality %v < 1", r.Name, name, r.Quality[name])
			}
		}
	}
	if out := FormatHyperTable(res); !strings.Contains(out, "EVG-X") {
		t.Fatalf("format should use the run's column order:\n%s", out)
	}
}

// An exact column that exhausts its node budget reports its incumbent's
// quality instead of aborting the table. A 640-task search cannot finish
// in 200k nodes, so every row takes the budget stop.
func TestExactColumnKeepsIncumbent(t *testing.T) {
	opts := Options{Seeds: 1, SizesOverride: tinySizes, Algorithms: []string{"SGH", "bnb"}, exactNodes: 200_000}
	res, err := RunHyperTable(context.Background(), gen.Unit, opts)
	if err != nil {
		t.Fatalf("BnB column must degrade to its incumbent, not abort: %v", err)
	}
	for _, r := range res.Rows {
		// The B&B seeds its incumbent from sorted greedy, so it can only
		// match or beat the SGH column.
		if r.Quality["BnB-MP"] < 1 || r.Quality["BnB-MP"] > r.Quality["SGH"] {
			t.Fatalf("%s: BnB-MP incumbent quality %v vs SGH %v", r.Name, r.Quality["BnB-MP"], r.Quality["SGH"])
		}
	}
}
