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
	"semimatch/internal/core"
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
				semimatch.SortedGreedy(g, semimatch.GreedyOptions{})
			}
		})
		b.Run(fmt.Sprintf("k=%d/exact", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := semimatch.ExactUnit(g, semimatch.ExactOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md §4) ---

func ablationHyper(b *testing.B, weights gen.WeightScheme) *semimatch.Hypergraph {
	b.Helper()
	h, err := gen.Hypergraph(gen.HyperParams{
		Gen: gen.FewgManyg, N: 1280, P: 256, Dv: 5, Dh: 10, G: 32, Weights: weights,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkAblationVectorFastVsNaive times the comparison of candidates on
// the processors they touch against the naive copy-and-sort variant the
// paper timed.
func BenchmarkAblationVectorFastVsNaive(b *testing.B) {
	h := ablationHyper(b, gen.Related)
	b.Run("VGH/fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.VectorGreedyHyp(h, core.HyperOptions{})
		}
	})
	b.Run("VGH/naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.VectorGreedyHyp(h, core.HyperOptions{Naive: true})
		}
	})
	b.Run("EVG/fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ExpectedVectorGreedyHyp(h, core.HyperOptions{})
		}
	})
	b.Run("EVG/naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ExpectedVectorGreedyHyp(h, core.HyperOptions{Naive: true})
		}
	})
}

// BenchmarkAblationExactSearch times the exact SINGLEPROC-UNIT algorithm
// across search strategies and feasibility testers: the paper's literal
// incremental+replication algorithm vs the bisection+capacitated variant.
func BenchmarkAblationExactSearch(b *testing.B) {
	g, err := gen.Bipartite(gen.FewgManyg, 5120, 256, 32, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opts core.ExactOptions
	}{
		{"incremental+replicate(paper)", core.ExactOptions{Strategy: core.SearchIncremental, Tester: core.TestReplicate}},
		{"incremental+capacitated", core.ExactOptions{Strategy: core.SearchIncremental, Tester: core.TestCapacitated}},
		{"bisection+replicate", core.ExactOptions{Strategy: core.SearchBisection, Tester: core.TestReplicate}},
		{"bisection+capacitated", core.ExactOptions{Strategy: core.SearchBisection, Tester: core.TestCapacitated}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ExactUnit(g, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAfterLoad times (and lets one inspect) the paper's
// pre-add selection rule vs the after-load rule on weighted instances.
func BenchmarkAblationAfterLoad(b *testing.B) {
	h := ablationHyper(b, gen.Related)
	b.Run("SGH/paper-rule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SortedGreedyHyp(h, core.HyperOptions{})
		}
	})
	b.Run("SGH/after-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SortedGreedyHyp(h, core.HyperOptions{AfterLoad: true})
		}
	})
}
