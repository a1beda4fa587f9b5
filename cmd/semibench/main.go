package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"semimatch/internal/bench"
	"semimatch/internal/gen"
	"semimatch/internal/registry"
	"semimatch/internal/telemetry"
)

func main() {
	table := flag.String("table", "all", "which table to run: 1, 2, 3, 8, sp, fig3, all")
	quick := flag.Bool("quick", false, "reduced grid: 2 sizes, 3 seeds")
	seeds := flag.Int("seeds", 0, "instances per parameter set (default 10, paper's setting)")
	workers := flag.Int("workers", 0, "worker pool size (default GOMAXPROCS; 1 for timing-grade runs)")
	d := flag.Int("d", 10, "degree parameter for SINGLEPROC tables")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	algs := flag.String("alg", "", "comma-separated algorithm columns (default: the registry's heuristic lineup)")
	jsonOut := flag.Bool("json", false, "emit newline-delimited JSON objects instead of text tables (schema in doc.go)")
	list := flag.Bool("list-algorithms", false, "print the solver catalog and exit")
	benchMode := flag.Bool("bench", false, "run the exact-solver perf micro-grid and write BENCH.json (see doc.go)")
	benchOut := flag.String("bench-out", "BENCH.json", "with -bench, where to write the machine-readable report")
	benchSeeds := flag.Int("bench-seeds", 0, "with -bench, instances per family (default 5)")
	benchNodes := flag.Int64("bench-nodes", 0, "with -bench, per-solve node budget (default 300e6)")
	benchRegress := flag.Bool("max-nodes-regress", false,
		"with -bench, fail (exit 1, no snapshot) if any case, sequential or parallel, explores more nodes than in the latest committed BENCH_<n>.json")
	benchTrace := flag.Bool("bench-trace", false, "with -bench, attach a solve trace to every measured solve (node counts are unchanged — the overhead check)")
	ledgerPath := flag.String("ledger", "", "with -bench, append one JSONL solve-ledger record per measured solve to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "semibench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "semibench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "semibench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "semibench: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		if *jsonOut {
			if err := registry.WriteCatalogNDJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "semibench: %v\n", err)
				os.Exit(1)
			}
			return
		}
		fmt.Print(registry.FormatCatalog())
		return
	}

	opts := bench.Options{Quick: *quick, Seeds: *seeds, Workers: *workers}
	if *algs != "" {
		for _, a := range strings.Split(*algs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opts.Algorithms = append(opts.Algorithms, a)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *benchMode {
		popts := bench.PerfOptions{
			Workers:  *workers,
			Seeds:    *benchSeeds,
			MaxNodes: *benchNodes,
			Trace:    *benchTrace,
		}
		if *ledgerPath != "" {
			l, err := telemetry.OpenLedger(*ledgerPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "semibench: -ledger: %v\n", err)
				os.Exit(1)
			}
			defer l.Close()
			popts.Ledger = l
		}
		rep, err := bench.RunPerf(ctx, popts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "semibench: -bench: %v\n", err)
			os.Exit(1)
		}
		if *benchRegress {
			if prevPath, ok := latestSnapshotPath(*benchOut); !ok {
				fmt.Fprintf(os.Stderr, "semibench: -max-nodes-regress: no previous snapshot next to %s; nothing to compare\n", *benchOut)
			} else if regressions := checkRegress(prevPath, rep); len(regressions) > 0 {
				fmt.Fprintf(os.Stderr, "semibench: -max-nodes-regress: %d case(s) regressed vs %s:\n", len(regressions), prevPath)
				for _, r := range regressions {
					fmt.Fprintf(os.Stderr, "  %s\n", r)
				}
				os.Exit(1)
			} else {
				fmt.Printf("max-nodes-regress: no case regressed vs %s\n", prevPath)
			}
		}
		// Two copies per run: <out> is always the latest report, and a
		// numbered <out-base>_<n>.json snapshot accumulates the perf
		// trajectory across runs (and PRs) instead of overwriting it.
		snapshot, n := nextSnapshotPath(*benchOut)
		for _, path := range []string{*benchOut, snapshot} {
			if err := writeBenchReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "semibench: -bench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
		}
		fmt.Print(bench.FormatPerfSummary(rep))
		fmt.Printf("wrote %s (latest, %d cases) and %s (snapshot %d)\n",
			*benchOut, len(rep.Cases), snapshot, n)
		return
	}

	runTables(ctx, opts, *table, *quick, *d, *jsonOut, *timeout)
}

// writeBenchReport writes one machine-readable perf report to path.
func writeBenchReport(path string, rep *bench.PerfReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := bench.WritePerfJSON(f, rep)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// checkRegress loads the previous snapshot and returns the
// node-count regressions of rep against it (see bench.NodeRegressions).
func checkRegress(prevPath string, rep *bench.PerfReport) []string {
	f, err := os.Open(prevPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "semibench: -max-nodes-regress: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	prev, err := bench.ReadPerfJSON(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "semibench: -max-nodes-regress: %s: %v\n", prevPath, err)
		os.Exit(1)
	}
	return bench.NodeRegressions(prev, rep)
}

// latestSnapshotPath returns the highest-numbered existing
// "<base>_<n>.json" snapshot next to out, or ok=false when none exists.
func latestSnapshotPath(out string) (string, bool) {
	base := strings.TrimSuffix(out, ".json")
	stem := filepath.Base(base)
	best := 0
	entries, err := os.ReadDir(filepath.Dir(out))
	if err != nil {
		return "", false
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, stem+"_") || !strings.HasSuffix(name, ".json") {
			continue
		}
		idx := strings.TrimSuffix(strings.TrimPrefix(name, stem+"_"), ".json")
		if n, err := strconv.Atoi(idx); err == nil && n > best {
			best = n
		}
	}
	if best == 0 {
		return "", false
	}
	return fmt.Sprintf("%s_%d.json", base, best), true
}

// nextSnapshotPath returns "<base>_<n>.json" next to out (out minus a
// ".json" suffix), where n is one past the highest existing snapshot
// index — BENCH.json stays the latest while BENCH_1.json, BENCH_2.json,
// ... record the trajectory. The directory is listed rather than
// globbed, so paths containing glob metacharacters cannot restart the
// numbering and overwrite an earlier snapshot.
func nextSnapshotPath(out string) (string, int) {
	base := strings.TrimSuffix(out, ".json")
	stem := filepath.Base(base)
	next := 1
	if entries, err := os.ReadDir(filepath.Dir(out)); err == nil {
		for _, e := range entries {
			name := e.Name()
			if !strings.HasPrefix(name, stem+"_") || !strings.HasSuffix(name, ".json") {
				continue
			}
			idx := strings.TrimSuffix(strings.TrimPrefix(name, stem+"_"), ".json")
			if n, err := strconv.Atoi(idx); err == nil && n >= next {
				next = n + 1
			}
		}
	}
	return fmt.Sprintf("%s_%d.json", base, next), next
}

func runTables(ctx context.Context, opts bench.Options, table string, quick bool, d int, jsonOut bool, timeout time.Duration) {
	run := func(name string, f func() error) {
		err := f()
		if err == nil {
			return
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "semibench: %s: timed out after %v\n", name, timeout)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "semibench: %s: %v\n", name, err)
		os.Exit(1)
	}

	want := func(t string) bool { return table == t || table == "all" }

	// hyperTable runs one MULTIPROC table and renders it as text or JSON.
	// Results are memoized per weight scheme: with -table all, Tables I
	// and II are two views of the same Unit-weights experiment grid, which
	// only needs computing once.
	hyperCache := map[gen.WeightScheme]*bench.HyperResult{}
	hyperTable := func(label string, weights gen.WeightScheme, heading string, statsView bool) {
		run("table "+label, func() error {
			res, ok := hyperCache[weights]
			if !ok {
				var err error
				res, err = bench.RunHyperTable(ctx, weights, opts)
				if err != nil {
					return err
				}
				hyperCache[weights] = res
			}
			if jsonOut {
				return bench.WriteJSON(os.Stdout, res.JSON(label))
			}
			fmt.Println(heading)
			if statsView {
				fmt.Print(bench.FormatHyperStats(res))
			} else {
				fmt.Print(bench.FormatHyperTable(res))
			}
			fmt.Println()
			return nil
		})
	}

	if want("1") {
		hyperTable("1", gen.Unit, "== Table I: random hypergraph instances ==", true)
	}
	if want("2") {
		hyperTable("2", gen.Unit, "== Table II: MULTIPROC-UNIT quality vs LB ==", false)
	}
	if want("3") {
		hyperTable("3", gen.Related, "== Table III: MULTIPROC related-weights quality vs LB ==", false)
	}
	if want("8") {
		hyperTable("8", gen.Random, "== TR Table 8: MULTIPROC random-weights quality vs LB ==", false)
	}
	if want("fig3") {
		run("fig3", func() error {
			maxK := 12
			if quick {
				maxK = 8
			}
			rows := bench.RunAdversarial(maxK)
			if jsonOut {
				return bench.WriteJSON(os.Stdout, bench.AdversarialJSON(rows))
			}
			fmt.Println("== Fig. 3: Chain(k) worst-case scaling ==")
			fmt.Print(bench.FormatAdversarial(rows))
			fmt.Println()
			return nil
		})
	}
	if want("sp") {
		for _, generator := range []gen.Generator{gen.FewgManyg, gen.HiLo} {
			for _, g := range []int{32, 128} {
				generator, g := generator, g
				run("sp", func() error {
					res, err := bench.RunSingleProc(ctx, generator, d, g, opts)
					if err != nil {
						return err
					}
					if jsonOut {
						return bench.WriteJSON(os.Stdout, res.JSON())
					}
					fmt.Printf("== SINGLEPROC-UNIT: %s, d=%d, g=%d ==\n", generator, d, g)
					fmt.Print(bench.FormatSPTable(res))
					fmt.Println()
					return nil
				})
			}
		}
	}
	switch table {
	case "1", "2", "3", "8", "sp", "fig3", "all":
	default:
		fmt.Fprintf(os.Stderr, "semibench: unknown -table %q (want 1, 2, 3, 8, sp, fig3 or all)\n", table)
		os.Exit(2)
	}
}
