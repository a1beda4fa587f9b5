// Package bench is the experiment harness that regenerates every table of
// the paper's evaluation (Sec. V): Table I (instance statistics), Tables
// II/III (MULTIPROC quality vs. the lower bound, unweighted/weighted), the
// technical report's random-weights table, and the SINGLEPROC quality
// tables summarized in Sec. V-B.
//
// Methodology, matching the paper: for every parameter set, 10 random
// instances are generated (seeds 1..10); quality columns report the median
// over instances of makespan/LB (or makespan/OPT for SINGLEPROC); time
// rows report the mean wall-clock seconds over all instances in the table.
// Instance jobs are sharded over the batch worker pool (one instance per
// work item, batch.ForEach), so a table run uses every core and observes
// the caller's context — a cancelled or expired context aborts the
// remaining jobs promptly. Algorithm timings are taken inside each job, so
// parallelism does not change the reported work (only scheduling noise —
// pass Workers=1 for timing-grade runs).
package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"semimatch/internal/batch"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/gen"
	"semimatch/internal/registry"
	"semimatch/internal/stats"
)

// Options configures a harness run.
type Options struct {
	// Seeds is the number of random instances per parameter set
	// (paper: 10). 0 means 10.
	Seeds int
	// Quick restricts the run to the two smallest size rows per family
	// with 3 seeds — CI-sized.
	Quick bool
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// SizesOverride replaces the size grid entirely (tests, custom runs).
	SizesOverride []SizeRow
	// Algorithms replaces the default table columns. Names resolve
	// through the solver registry for the table's problem class; an
	// unknown name fails the run with a suggested-names error instead of
	// panicking.
	Algorithms []string
	// exactNodes is the node budget of the hypergraph tables' exact
	// columns; 0 means the solvers' default. Only tests set it, to reach
	// the budget stop quickly.
	exactNodes int64
}

func (o Options) seeds() int {
	if o.Quick {
		return 3
	}
	if o.Seeds <= 0 {
		return 10
	}
	return o.Seeds
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SizeRow is one (n, p) size point of the paper's experiment grid. The
// paper encodes them as n/256 and p/256: 5-1, 20-1, 20-4, 80-1, 80-4,
// 80-16 (with n ≥ 5p).
type SizeRow struct {
	Label string
	N, P  int
}

// Sizes is the full grid of Table I.
var Sizes = []SizeRow{
	{"5-1", 1280, 256},
	{"20-1", 5120, 256},
	{"20-4", 5120, 1024},
	{"80-1", 20480, 256},
	{"80-4", 20480, 1024},
	{"80-16", 20480, 4096},
}

// QuickSizes is the reduced grid used with Options.Quick.
var QuickSizes = []SizeRow{
	{"5-1", 1280, 256},
	{"20-4", 5120, 1024},
}

func (o Options) sizes() []SizeRow {
	if len(o.SizesOverride) > 0 {
		return o.SizesOverride
	}
	if o.Quick {
		return QuickSizes
	}
	return Sizes
}

// Family is one generator family column block: the instance-name prefix
// and the generator/group parameters behind it.
type Family struct {
	Prefix string
	Gen    gen.Generator
	G      int
}

// Families lists the four hypergraph families of Tables I–III: FewgManyg
// with few (g=32, "FG") and many (g=128, "MG") groups, and HiLo likewise
// ("HLF", "HLM").
var Families = []Family{
	{"FG", gen.FewgManyg, 32},
	{"MG", gen.FewgManyg, 128},
	{"HLF", gen.HiLo, 32},
	{"HLM", gen.HiLo, 128},
}

// HyperAlgorithms is the fixed algorithm order of Tables II/III — the
// registry's MULTIPROC heuristic lineup.
var HyperAlgorithms = registry.Names(registry.Heuristics(registry.MultiProc))

// resolveAlgorithms maps table column names to registry solvers and their
// canonical names; unknown names yield the registry's suggested-names
// error rather than a panic deep inside a worker.
func resolveAlgorithms(class registry.Class, names, def []string) ([]string, []*registry.Solver, error) {
	algs, sols, err := registry.ResolveClass(class, names, def)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %w", err)
	}
	return algs, sols, nil
}

// HyperRow is one instance row of Tables I/II/III (a family × size point,
// aggregated over seeds).
type HyperRow struct {
	Name     string
	V1, V2   int
	NumEdges int                      // median |N|
	NumPins  int                      // median Σ|h∩V2|
	LB       float64                  // median lower bound
	Quality  map[string]float64       // algorithm → median makespan/LB
	Times    map[string]time.Duration // algorithm → mean runtime
}

// HyperResult is a full table: rows plus the per-algorithm averages the
// paper prints at the bottom.
type HyperResult struct {
	Weights gen.WeightScheme
	// Algorithms is the column order of the run (canonical registry
	// names) — HyperAlgorithms unless Options.Algorithms overrode it.
	Algorithms []string
	Rows       []HyperRow
	AvgQual    map[string]float64
	AvgTime    map[string]time.Duration
}

// RunHyperTable regenerates Table II (Unit), Table III (Related) or the TR
// random-weights table (Random), per the weight scheme. Jobs — one
// generated instance each — run on the batch worker pool under ctx; a
// cancelled context aborts the run and returns its error.
func RunHyperTable(ctx context.Context, weights gen.WeightScheme, o Options) (*HyperResult, error) {
	const dv, dh = 5, 10 // the parameter choice detailed in the paper
	algs, sols, err := resolveAlgorithms(registry.MultiProc, o.Algorithms, HyperAlgorithms)
	if err != nil {
		return nil, err
	}
	type job struct {
		famIdx, sizeIdx, seed int
	}
	type obs struct {
		numEdges, numPins int
		lb                int64
		ratio             map[string]float64
		times             map[string]time.Duration
	}
	sizes, seeds := o.sizes(), o.seeds()
	var jobs []job
	for fi := range Families {
		for si := range sizes {
			for seed := 1; seed <= seeds; seed++ {
				jobs = append(jobs, job{fi, si, seed})
			}
		}
	}
	// Each job's observation lands at its job index, so the aggregates
	// below sum in job order whatever order the workers finish in.
	results := make([]obs, len(jobs))

	err = batch.ForEach(ctx, o.workers(), len(jobs), func(ctx context.Context, i int) error {
		j := jobs[i]
		fam, size := Families[j.famIdx], sizes[j.sizeIdx]
		h, err := gen.Hypergraph(gen.HyperParams{
			Gen: fam.Gen, N: size.N, P: size.P,
			Dv: dv, Dh: dh, G: fam.G, Weights: weights,
		}, int64(j.seed))
		if err != nil {
			return err
		}
		ob := obs{
			numEdges: h.NumEdges(),
			numPins:  h.NumPins(),
			lb:       core.LowerBound(h),
			ratio:    map[string]float64{},
			times:    map[string]time.Duration{},
		}
		for ai, name := range algs {
			start := time.Now()
			a, err := sols[ai].SolveHyper(ctx, h, registry.Options{
				BnB: exact.Options{MaxNodes: o.exactNodes},
			})
			// A budget-truncated exact column still reports its incumbent's
			// quality; anything else fails the run.
			if err != nil && (a == nil || !registry.IncumbentError(err)) {
				return fmt.Errorf("bench: %s on seed %d: %w", name, j.seed, err)
			}
			ob.times[name] = time.Since(start)
			m := core.HyperMakespan(h, a)
			ob.ratio[name] = float64(m) / float64(ob.lb)
		}
		results[i] = ob
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &HyperResult{
		Weights:    weights,
		Algorithms: algs,
		AvgQual:    map[string]float64{},
		AvgTime:    map[string]time.Duration{},
	}
	var allRatios = map[string][]float64{}
	var allTimes = map[string][]float64{}
	for fi, fam := range Families {
		for si, size := range sizes {
			k := (fi*len(sizes) + si) * seeds
			obsList := results[k : k+seeds]
			row := HyperRow{
				Name:    instanceName(fam.Prefix, size.Label, weights),
				V1:      size.N,
				V2:      size.P,
				Quality: map[string]float64{},
				Times:   map[string]time.Duration{},
			}
			var edges, pins []int
			var lbs []int64
			for _, ob := range obsList {
				edges = append(edges, ob.numEdges)
				pins = append(pins, ob.numPins)
				lbs = append(lbs, ob.lb)
			}
			row.NumEdges = stats.MedianInt(edges)
			row.NumPins = stats.MedianInt(pins)
			row.LB = stats.Median(lbs)
			for _, name := range algs {
				var rs, ts []float64
				for _, ob := range obsList {
					rs = append(rs, ob.ratio[name])
					ts = append(ts, ob.times[name].Seconds())
				}
				row.Quality[name] = stats.Median(rs)
				row.Times[name] = time.Duration(stats.Mean(ts) * float64(time.Second))
				allRatios[name] = append(allRatios[name], rs...)
				allTimes[name] = append(allTimes[name], ts...)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for _, name := range algs {
		res.AvgQual[name] = stats.Mean(allRatios[name])
		res.AvgTime[name] = time.Duration(stats.Mean(allTimes[name]) * float64(time.Second))
	}
	return res, nil
}

func instanceName(prefix, size string, weights gen.WeightScheme) string {
	name := fmt.Sprintf("%s-%s-MP", prefix, size)
	switch weights {
	case gen.Related:
		name += "-W"
	case gen.Random:
		name += "-R"
	}
	return name
}

// FormatHyperStats renders the Table I view (instance statistics) of a
// result.
func FormatHyperStats(res *HyperResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %8s %6s %8s %12s\n", "Instance", "|V1|", "|V2|", "|N|", "sum|h∩V2|")
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-16s %8d %6d %8d %12d\n", r.Name, r.V1, r.V2, r.NumEdges, r.NumPins)
	}
	return sb.String()
}

// FormatHyperTable renders the Table II/III view (quality vs LB and
// times).
func FormatHyperTable(res *HyperResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %8s", "Instance", "LB")
	for _, a := range res.Algorithms {
		fmt.Fprintf(&sb, " %6s", a)
	}
	sb.WriteByte('\n')
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-16s %8.0f", r.Name, r.LB)
		for _, a := range res.Algorithms {
			fmt.Fprintf(&sb, " %6.2f", r.Quality[a])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-16s %8s", "Average quality", "")
	for _, a := range res.Algorithms {
		fmt.Fprintf(&sb, " %6.2f", res.AvgQual[a])
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-16s %8s", "Average time (s)", "")
	for _, a := range res.Algorithms {
		fmt.Fprintf(&sb, " %6.3f", res.AvgTime[a].Seconds())
	}
	sb.WriteByte('\n')
	return sb.String()
}

// --- SINGLEPROC experiments (Sec. V-B) ---

// SPAlgorithms is the fixed algorithm order of the SINGLEPROC tables —
// the registry's SINGLEPROC heuristic lineup.
var SPAlgorithms = registry.Names(registry.Heuristics(registry.SingleProc))

// SPRow is one row of a SINGLEPROC quality table.
type SPRow struct {
	Name      string
	V1, V2    int
	NumEdges  int                      // median |E|
	Opt       float64                  // median optimal makespan (exact algorithm)
	Quality   map[string]float64       // algorithm → median makespan/OPT
	Times     map[string]time.Duration // algorithm → mean runtime
	ExactTime time.Duration            // mean exact-algorithm runtime
}

// SPResult is a full SINGLEPROC table for one (generator, d, g) setting.
type SPResult struct {
	Gen  gen.Generator
	D, G int
	// Algorithms is the column order of the run (canonical registry
	// names) — SPAlgorithms unless Options.Algorithms overrode it.
	Algorithms []string
	Rows       []SPRow
	// Averages over all instances of the table.
	AvgQual map[string]float64
	AvgTime map[string]time.Duration
}

// RunSingleProc regenerates a SINGLEPROC-UNIT experiment: instances from
// the given generator with degree parameter d and g groups over the size
// grid, solved by the four greedy heuristics and the exact algorithm. Jobs
// run on the batch worker pool under ctx.
func RunSingleProc(ctx context.Context, generator gen.Generator, d, g int, o Options) (*SPResult, error) {
	algs, sols, err := resolveAlgorithms(registry.SingleProc, o.Algorithms, SPAlgorithms)
	if err != nil {
		return nil, err
	}
	type job struct {
		sizeIdx, seed int
	}
	type obs struct {
		numEdges  int
		opt       int64
		ratio     map[string]float64
		times     map[string]time.Duration
		exactTime time.Duration
	}
	sizes, seeds := o.sizes(), o.seeds()
	var jobs []job
	for si := range sizes {
		for seed := 1; seed <= seeds; seed++ {
			jobs = append(jobs, job{si, seed})
		}
	}
	// Observations land at their job index, as in RunHyperTable.
	results := make([]obs, len(jobs))

	err = batch.ForEach(ctx, o.workers(), len(jobs), func(ctx context.Context, i int) error {
		j := jobs[i]
		size := sizes[j.sizeIdx]
		gr, err := gen.Bipartite(generator, size.N, size.P, g, d, int64(j.seed))
		if err != nil {
			return err
		}
		start := time.Now()
		_, opt, err := core.ExactUnit(gr, core.ExactOptions{
			Strategy: core.SearchBisection, Tester: core.TestCapacitated,
		})
		exactTime := time.Since(start)
		if err != nil {
			return err
		}
		ob := obs{
			numEdges:  gr.NumEdges(),
			opt:       opt,
			ratio:     map[string]float64{},
			times:     map[string]time.Duration{},
			exactTime: exactTime,
		}
		for ai, name := range algs {
			t0 := time.Now()
			a, err := sols[ai].SolveSingle(ctx, gr, registry.Options{})
			if err != nil && (a == nil || !registry.IncumbentError(err)) {
				return fmt.Errorf("bench: %s on seed %d: %w", name, j.seed, err)
			}
			ob.times[name] = time.Since(t0)
			ob.ratio[name] = float64(core.Makespan(gr, a)) / float64(opt)
		}
		results[i] = ob
		return nil
	})
	if err != nil {
		return nil, err
	}

	prefix := "FG"
	if generator == gen.HiLo {
		prefix = "HL"
	}
	res := &SPResult{
		Gen: generator, D: d, G: g,
		Algorithms: algs,
		AvgQual:    map[string]float64{},
		AvgTime:    map[string]time.Duration{},
	}
	allRatios := map[string][]float64{}
	allTimes := map[string][]float64{}
	for si, size := range sizes {
		obsList := results[si*seeds : (si+1)*seeds]
		row := SPRow{
			Name:    fmt.Sprintf("%s-%s-d%d-g%d", prefix, size.Label, d, g),
			V1:      size.N,
			V2:      size.P,
			Quality: map[string]float64{},
			Times:   map[string]time.Duration{},
		}
		var edges []int
		var opts []int64
		var exTimes []float64
		for _, ob := range obsList {
			edges = append(edges, ob.numEdges)
			opts = append(opts, ob.opt)
			exTimes = append(exTimes, ob.exactTime.Seconds())
		}
		row.NumEdges = stats.MedianInt(edges)
		row.Opt = stats.Median(opts)
		row.ExactTime = time.Duration(stats.Mean(exTimes) * float64(time.Second))
		for _, name := range algs {
			var rs, ts []float64
			for _, ob := range obsList {
				rs = append(rs, ob.ratio[name])
				ts = append(ts, ob.times[name].Seconds())
			}
			row.Quality[name] = stats.Median(rs)
			row.Times[name] = time.Duration(stats.Mean(ts) * float64(time.Second))
			allRatios[name] = append(allRatios[name], rs...)
			allTimes[name] = append(allTimes[name], ts...)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, name := range algs {
		res.AvgQual[name] = stats.Mean(allRatios[name])
		res.AvgTime[name] = time.Duration(stats.Mean(allTimes[name]) * float64(time.Second))
	}
	return res, nil
}

// FormatSPTable renders a SINGLEPROC result table.
func FormatSPTable(res *SPResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SINGLEPROC-UNIT, %s, d=%d, g=%d\n", res.Gen, res.D, res.G)
	fmt.Fprintf(&sb, "%-18s %8s %9s %6s", "Instance", "|E|", "OPT", "t_ex")
	for _, a := range res.Algorithms {
		fmt.Fprintf(&sb, " %8s", a)
	}
	sb.WriteByte('\n')
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-18s %8d %9.0f %6.2f", r.Name, r.NumEdges, r.Opt, r.ExactTime.Seconds())
		for _, a := range res.Algorithms {
			fmt.Fprintf(&sb, " %8.2f", r.Quality[a])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-18s %8s %9s %6s", "Average quality", "", "", "")
	for _, a := range res.Algorithms {
		fmt.Fprintf(&sb, " %8.3f", res.AvgQual[a])
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-18s %8s %9s %6s", "Average time (s)", "", "", "")
	for _, a := range res.Algorithms {
		fmt.Fprintf(&sb, " %8.4f", res.AvgTime[a].Seconds())
	}
	sb.WriteByte('\n')
	return sb.String()
}
