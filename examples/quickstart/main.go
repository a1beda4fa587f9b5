// Quickstart: build a small MULTIPROC instance through the public API,
// solve it with the unified Problem → Run → Report entry point, compare
// every named algorithm, and print the resulting Gantt chart.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"semimatch"
)

func main() {
	// Three processors: two CPUs and one GPU. Tasks may run sequentially
	// on one CPU, or split across CPU+GPU for a shorter per-processor
	// time (the paper's "parallel tasks with resource constraints").
	in := semimatch.NewInstance("cpu0", "cpu1", "gpu")
	in.AddTask("render",
		semimatch.Config{Procs: []int{0}, Time: 8},
		semimatch.Config{Procs: []int{1}, Time: 8},
		semimatch.Config{Procs: []int{0, 2}, Time: 3},
	)
	in.AddTask("encode",
		semimatch.Config{Procs: []int{1}, Time: 6},
		semimatch.Config{Procs: []int{1, 2}, Time: 2},
	)
	in.AddTask("archive",
		semimatch.Config{Procs: []int{0}, Time: 4},
		semimatch.Config{Procs: []int{1}, Time: 4},
	)
	in.AddTask("index",
		semimatch.Config{Procs: []int{0, 1}, Time: 2},
		semimatch.Config{Procs: []int{2}, Time: 5},
	)

	// The unified solve API: wrap the instance's hypergraph form as a
	// Problem and let Run's auto policy pick — a heuristic race first,
	// then an exact proof since the instance is tiny. The same call
	// would solve a bipartite SINGLEPROC Problem.
	h, err := in.Hypergraph()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
		semimatch.WithRefine(),
		semimatch.WithObserver(func(inc semimatch.Incumbent) {
			fmt.Printf("incumbent: makespan %d by %s (final=%v)\n", inc.Makespan, inc.Solver, inc.Final)
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto policy: makespan %d (%s, solver %s, lower bound %d)\n\n",
		rep.Makespan, rep.Status, rep.Solver, rep.LowerBound)

	// Named algorithms, per registry name, through the scheduling front
	// end (which reports named tasks and simulates timelines).
	for _, alg := range []semimatch.Algorithm{
		semimatch.SGH, semimatch.EGH, semimatch.VGH,
		semimatch.ExpectedVectorGreedy, semimatch.ExactSchedule,
	} {
		s, err := semimatch.Solve(in, alg)
		if err != nil {
			log.Fatalf("%v: %v", alg, err)
		}
		fmt.Printf("%-6s makespan %d", alg, s.Makespan)
		if s.Optimal() {
			fmt.Print("  (proven optimal)")
		}
		fmt.Println()
	}

	// Show the best schedule as a timeline.
	s, err := semimatch.Solve(in, semimatch.ExactSchedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	tl := s.Simulate()
	if err := tl.Validate(s); err != nil {
		log.Fatal(err)
	}
	tl.Gantt(os.Stdout, s)
	fmt.Println("\nbottlenecks:", s.LoadReport()[0])
}
