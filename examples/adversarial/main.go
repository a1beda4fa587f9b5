// Adversarial: demonstrates the paper's worst-case constructions — the
// instances where each greedy heuristic is provably far from optimal — and
// the Theorem 1 reduction from Exact Cover by 3-Sets.
//
// Run with: go run ./examples/adversarial
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"semimatch"
	"semimatch/internal/exact"
)

func main() {
	report := func(name string, g *semimatch.Graph) {
		basic := semimatch.Makespan(g, semimatch.BasicGreedy(g))
		sorted := semimatch.Makespan(g, semimatch.SortedGreedy(g))
		double := semimatch.Makespan(g, semimatch.DoubleSorted(g))
		expected := semimatch.Makespan(g, semimatch.ExpectedGreedy(g))
		_, opt, err := semimatch.ExactUnit(g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s basic=%d sorted=%d double=%d expected=%d optimal=%d\n",
			name, basic, sorted, double, expected, opt)
	}

	fmt.Println("Worst-case families (makespans):")
	report("Fig.1 toy", semimatch.Fig1())
	for k := 2; k <= 6; k++ {
		report(fmt.Sprintf("Chain(k=%d) [Fig.3]", k), semimatch.Chain(k))
	}
	report("ChainPlus [TR Fig.4]", semimatch.ChainPlus())
	report("ExpectedTrap [TR F.5]", semimatch.ExpectedTrap())

	// Theorem 1: scheduling decides Exact Cover by 3-Sets.
	fmt.Println("\nTheorem 1 reduction (X3C → MULTIPROC-UNIT):")
	rng := rand.New(rand.NewSource(99))
	for _, planted := range []bool{true, false} {
		x := randX3C(rng, 4, 6, planted)
		h, err := x.ToMultiproc()
		if err != nil {
			log.Fatal(err)
		}
		rep, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
			semimatch.WithAlgorithm("BnB-MP"))
		if err != nil {
			log.Fatal(err)
		}
		if rep.Status != semimatch.StatusOptimal {
			log.Fatalf("branch and bound stopped short of a proof (%s)", rep.Status)
		}
		_, hasCover := exact.SolveX3C(x)
		fmt.Printf("  planted-cover=%-5v → X3C solvable=%-5v, optimal makespan=%d (1 ⇔ cover)\n",
			planted, hasCover, rep.Makespan)
	}
}

// randX3C builds a random X3C instance (optionally with a planted cover).
func randX3C(rng *rand.Rand, q, extra int, planted bool) semimatch.X3C {
	x := semimatch.X3C{Q: q}
	if planted {
		perm := rng.Perm(3 * q)
		for i := 0; i < q; i++ {
			x.Sets = append(x.Sets, [3]int{perm[3*i], perm[3*i+1], perm[3*i+2]})
		}
	}
	for i := 0; i < extra; i++ {
		perm := rng.Perm(3 * q)
		x.Sets = append(x.Sets, [3]int{perm[0], perm[1], perm[2]})
	}
	return x
}
