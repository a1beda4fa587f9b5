package semimatch_test

import (
	"context"
	"fmt"

	"semimatch"
)

// The unified solve API: one class-generic Run answers both encodings.
// A bipartite SINGLEPROC instance and a hypergraph MULTIPROC instance
// each become a Problem; the auto policy races the class's heuristics
// and then proves optimality on these tiny instances.
func ExampleRun() {
	b := semimatch.NewGraphBuilder(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g, _ := b.Build()

	hb := semimatch.NewHypergraphBuilder(2, 3)
	hb.AddEdge(0, []int{0}, 4)
	hb.AddEdge(0, []int{1, 2}, 2)
	hb.AddEdge(1, []int{0}, 3)
	h, _ := hb.Build()

	for _, p := range []semimatch.Problem{
		semimatch.GraphProblem(g),
		semimatch.HypergraphProblem(h),
	} {
		rep, err := semimatch.Run(context.Background(), p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: makespan %d (%s)\n", rep.Class, rep.Makespan, rep.Status)
	}
	// Output:
	// SINGLEPROC: makespan 1 (optimal)
	// MULTIPROC: makespan 3 (optimal)
}

// SolveProblems batches both encodings through one worker pool.
func ExampleSolveProblems() {
	b := semimatch.NewGraphBuilder(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g, _ := b.Build()

	hb := semimatch.NewHypergraphBuilder(2, 2)
	hb.AddEdge(0, []int{0}, 4)
	hb.AddEdge(0, []int{1}, 4)
	hb.AddEdge(1, []int{0}, 2)
	h, _ := hb.Build()

	problems := []semimatch.Problem{
		semimatch.GraphProblem(g),
		semimatch.HypergraphProblem(h),
	}
	outcomes, err := semimatch.SolveProblems(context.Background(), problems)
	if err != nil {
		panic(err)
	}
	for i, o := range outcomes {
		fmt.Printf("problem %d: makespan %d, optimal %v\n", i, o.Report.Makespan, o.Report.Optimal())
	}
	// Output:
	// problem 0: makespan 1, optimal true
	// problem 1: makespan 4, optimal true
}

// The Fig. 1 instance of the paper: two tasks, two processors. T1 can run
// anywhere, T2 only on P0. Basic greedy stacks both on P0; the exact
// algorithm balances them.
func ExampleExactUnit() {
	b := semimatch.NewGraphBuilder(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g, _ := b.Build()

	basic := semimatch.BasicGreedy(g)
	fmt.Println("basic-greedy makespan:", semimatch.Makespan(g, basic))

	_, opt, _ := semimatch.ExactUnit(g)
	fmt.Println("optimal makespan:", opt)
	// Output:
	// basic-greedy makespan: 2
	// optimal makespan: 1
}

// A MULTIPROC instance in the hypergraph form: a task may run alone on P0
// (4 time units) or split over P1 and P2 (2 units each).
func ExampleLowerBound() {
	b := semimatch.NewHypergraphBuilder(2, 3)
	b.AddEdge(0, []int{0}, 4)
	b.AddEdge(0, []int{1, 2}, 2)
	b.AddEdge(1, []int{0}, 3)
	h, _ := b.Build()

	fmt.Println("lower bound:", semimatch.LowerBound(h))
	a := semimatch.ExpectedVectorGreedyHyp(h)
	fmt.Println("EVG makespan:", semimatch.HyperMakespan(h, a))
	// Output:
	// lower bound: 3
	// EVG makespan: 3
}

// The scheduling front end: named processors and tasks, solved and
// simulated.
func ExampleSolve() {
	in := semimatch.NewInstance("cpu", "gpu")
	in.AddTask("train",
		semimatch.Config{Procs: []int{0}, Time: 9},
		semimatch.Config{Procs: []int{0, 1}, Time: 4})
	in.AddTask("etl", semimatch.Config{Procs: []int{0}, Time: 3})

	s, _ := semimatch.Solve(in, semimatch.ExactSchedule)
	fmt.Println("makespan:", s.Makespan)
	fmt.Println("train runs on", len(in.Tasks[0].Configs[s.Choice[0]].Procs), "processors")
	// Output:
	// makespan: 7
	// train runs on 2 processors
}

// Chain(k) is the paper's Fig. 3 family: sorted-greedy is k times worse
// than optimal, and online greedy realizes the Θ(log p) competitive lower
// bound exactly.
func ExampleChain() {
	g := semimatch.Chain(5)
	sorted := semimatch.SortedGreedy(g)
	fmt.Println("sorted-greedy:", semimatch.Makespan(g, sorted))
	_, opt, _ := semimatch.ExactUnit(g)
	fmt.Println("optimal:", opt)
	// Output:
	// sorted-greedy: 5
	// optimal: 1
}

// The heuristic portfolio: the auto policy with its exact stage switched
// off races all four hypergraph heuristics concurrently and returns the
// best result; WithRefine post-processes each with local search.
func ExampleRun_portfolio() {
	b := semimatch.NewHypergraphBuilder(3, 2)
	b.AddEdge(0, []int{0}, 5)
	b.AddEdge(0, []int{1}, 5)
	b.AddEdge(1, []int{0}, 2)
	b.AddEdge(2, []int{1}, 2)
	h, _ := b.Build()

	rep, _ := semimatch.Run(context.Background(), semimatch.HypergraphProblem(h),
		semimatch.WithRefine(), semimatch.WithExactLimit(-1))
	fmt.Println("makespan:", rep.Makespan)
	// Output:
	// makespan: 7
}

// SolveProblems shards many instances across all cores: each one gets the
// portfolio, plus a branch-and-bound optimality proof when it is small
// enough, under a common context that can carry a deadline.
func ExampleSolveProblems_refine() {
	var problems []semimatch.Problem
	for i := 0; i < 3; i++ {
		b := semimatch.NewHypergraphBuilder(2, 2)
		b.AddEdge(0, []int{0}, int64(4+i))
		b.AddEdge(0, []int{1}, int64(4+i))
		b.AddEdge(1, []int{0}, 2)
		h, _ := b.Build()
		problems = append(problems, semimatch.HypergraphProblem(h))
	}

	outcomes, err := semimatch.SolveProblems(context.Background(), problems, semimatch.WithRefine())
	if err != nil {
		panic(err)
	}
	for i, o := range outcomes {
		fmt.Printf("instance %d: makespan %d, optimal %v\n", i, o.Report.Makespan, o.Report.Optimal())
	}
	// Output:
	// instance 0: makespan 4, optimal true
	// instance 1: makespan 5, optimal true
	// instance 2: makespan 6, optimal true
}
