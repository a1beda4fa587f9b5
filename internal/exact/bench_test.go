package exact

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Micro-benchmarks for both branch-and-bound solvers, sequential and
// parallel. Names are benchstat-friendly (key=value segments) and seeds
// are fixed, so perf changes diff cleanly across runs:
//
//	go test -run '^$' -bench 'BnB' -count 10 ./internal/exact/ > new.txt
//	benchstat old.txt new.txt
//
// The instances are sized to finish in milliseconds under -benchtime 1x
// (CI's bench-smoke) while still exercising real pruning; the recorded
// hard-instance trajectory lives in BENCH.json (semibench -bench).

func BenchmarkBnBSP(b *testing.B) {
	cases := []struct {
		name string
		seed int64
		n, p int
		maxW int64
	}{
		{"shape=random/n=14/p=5", 11, 14, 5, 30},
		{"shape=random/n=18/p=5", 12, 18, 5, 30},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		g := randomWeightedGraph(rng, c.n, c.p, 4, c.maxW)
		for _, workers := range []int{0, 4} {
			name := c.name + "/solver=seq"
			if workers > 0 {
				name = fmt.Sprintf("%s/solver=par/workers=%d", c.name, workers)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if workers == 0 {
						_, _, err = SolveSingleProc(context.Background(), g, Options{Workers: 1})
					} else {
						_, _, err = SolveSingleProc(context.Background(), g, Options{Workers: workers})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkBnBMP(b *testing.B) {
	cases := []struct {
		name string
		seed int64
		n, p int
		maxW int64
	}{
		{"shape=random/n=12/p=6", 6, 12, 6, 8},
		{"shape=random/n=16/p=6", 7, 16, 6, 8},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		h := randomHyper(rng, c.n, c.p, 3, 3, c.maxW)
		for _, workers := range []int{0, 4} {
			name := c.name + "/solver=seq"
			if workers > 0 {
				name = fmt.Sprintf("%s/solver=par/workers=%d", c.name, workers)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if workers == 0 {
						_, _, err = SolveMultiProc(context.Background(), h, Options{Workers: 1})
					} else {
						_, _, err = SolveMultiProc(context.Background(), h, Options{Workers: workers})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBnBPerNodeAllocs pins the flat-core claim that the search's
// per-node hot loop performs zero heap allocations: every allocation of a
// sequential solve happens during compilation and setup, so allocations
// per expanded node go to zero as the tree grows. The benchmark reports
// allocs/node alongside the usual allocs/op (which counts the constant
// compile+setup work).
func BenchmarkBnBPerNodeAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := randomWeightedGraph(rng, 28, 5, 4, 60)
	b.Run("class=sp/n=28/p=5", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			var st SearchStats
			if _, _, err := SolveSingleProc(context.Background(), g, Options{Workers: 1, Stats: &st}); err != nil {
				b.Fatal(err)
			}
			nodes += st.Nodes
		}
		runtime.ReadMemStats(&after)
		if nodes > 0 {
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(nodes), "allocs/node")
		}
	})
	hrng := rand.New(rand.NewSource(21))
	h := randomHyper(hrng, 20, 6, 3, 3, 12)
	b.Run("class=mp/n=20/p=6", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			var st SearchStats
			if _, _, err := SolveMultiProc(context.Background(), h, Options{Workers: 1, Stats: &st}); err != nil {
				b.Fatal(err)
			}
			nodes += st.Nodes
		}
		runtime.ReadMemStats(&after)
		if nodes > 0 {
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(nodes), "allocs/node")
		}
	})
}
