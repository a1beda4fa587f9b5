// Package-level benchmarks: one testing.B target per table/figure of the
// paper's evaluation, so `go test -bench=.` regenerates every experiment
// at a CI-friendly scale. cmd/semibench runs the full-size grids and
// prints the tables themselves; `semibench -bench` records the
// exact-solver perf trajectory as BENCH.json. EXPERIMENTS.md holds the
// recorded results and the methodology for regressing against them.
package semimatch_test

import (
	"context"
	"fmt"
	"testing"

	"semimatch"
	"semimatch/internal/bench"
	"semimatch/internal/gen"
)

// benchOpts keeps -bench runs to one representative size with one seed;
// the full grid is cmd/semibench's job.
var benchOpts = bench.Options{
	Seeds:         1,
	SizesOverride: []bench.SizeRow{{Label: "5-1", N: 1280, P: 256}},
}

// BenchmarkTable1 regenerates the Table I statistics (instance
// generation + stat collection for all four families).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunHyperTable(context.Background(), gen.Unit, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		_ = bench.FormatHyperStats(res)
	}
}

// BenchmarkTable2 regenerates Table II (MULTIPROC-UNIT quality vs LB).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunHyperTable(context.Background(), gen.Unit, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table III (related weights).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunHyperTable(context.Background(), gen.Related, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8 regenerates the TR's random-weights table.
func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunHyperTable(context.Background(), gen.Random, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleProcTables regenerates one SINGLEPROC quality table
// (Sec. V-B) per generator family.
func BenchmarkSingleProcTables(b *testing.B) {
	for _, generator := range []gen.Generator{gen.FewgManyg, gen.HiLo} {
		b.Run(generator.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunSingleProc(context.Background(), generator, 10, 32, benchOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Chain measures the heuristics on the Fig. 3 worst-case
// chain (greedy k vs optimal 1) across sizes.
func BenchmarkFig3Chain(b *testing.B) {
	for _, k := range []int{8, 12, 16} {
		g := semimatch.Chain(k)
		b.Run(fmt.Sprintf("k=%d/sorted", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				semimatch.SortedGreedy(g)
			}
		})
		b.Run(fmt.Sprintf("k=%d/exact", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := semimatch.ExactUnit(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
