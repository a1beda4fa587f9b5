// Webdispatch: the SINGLEPROC view — dispatching a burst of requests to
// eligible backend servers (machine-eligibility scheduling). Each request
// may only be served by the servers holding its shard replica, a classic
// resource-constraint pattern; minimizing the makespan balances the burst.
//
// We generate the eligibility graph with the paper's FewgManyg generator
// (shards cluster into locality groups), then compare the four greedy
// heuristics with the exact polynomial algorithm for unit requests, and
// run the weighted branch-and-bound on a small weighted variant.
//
// Run with: go run ./examples/webdispatch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"semimatch"
)

func main() {
	const (
		requests = 4000
		servers  = 64
		replicas = 3 // each request can go to ~3 servers
		groups   = 8
	)

	g, err := semimatch.GenerateBipartite(semimatch.FewgManyg, requests, servers, groups, replicas, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dispatch burst: %d requests over %d servers (%d eligibility edges)\n\n",
		requests, servers, g.NumEdges())

	exactA, opt, err := semimatch.ExactUnit(g)
	if err != nil {
		log.Fatal(err)
	}
	if err := semimatch.ValidateAssignment(g, exactA); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact optimal makespan: %d requests on the busiest server\n", opt)

	type heur struct {
		name string
		f    func(*semimatch.Graph) semimatch.Assignment
	}
	for _, h := range []heur{
		{"basic-greedy", semimatch.BasicGreedy},
		{"sorted-greedy", semimatch.SortedGreedy},
		{"double-sorted", semimatch.DoubleSorted},
		{"expected-greedy", semimatch.ExpectedGreedy},
	} {
		a := h.f(g)
		m := semimatch.Makespan(g, a)
		fmt.Printf("%-16s makespan %4d  (%.3f x OPT)\n", h.name, m, float64(m)/float64(opt))
	}

	// The Harvey et al. optimal semi-matching must match the exact search.
	ha, err := semimatch.HarveyOptimal(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s makespan %4d  (cost-reducing paths)\n", "harvey-optimal", semimatch.Makespan(g, ha))

	// Weighted variant: heavy and light requests; NP-complete, so solve a
	// small sample exactly and compare the greedy on it.
	fmt.Println("\nweighted variant (500 requests, exact branch-and-bound vs sorted-greedy):")
	rng := rand.New(rand.NewSource(5))
	wb := semimatch.NewGraphBuilder(500, 16)
	for t := 0; t < 500; t++ {
		w := int64(1 + rng.Intn(9))
		for _, s := range rng.Perm(16)[:2] {
			wb.AddWeightedEdge(t, s, w)
		}
	}
	wg, err := wb.Build()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := semimatch.Run(context.Background(), semimatch.GraphProblem(wg),
		semimatch.WithAlgorithm("BnB-SP"), semimatch.WithNodeBudget(2_000_000))
	if err != nil {
		log.Fatal(err)
	}
	optW := rep.Makespan
	status := "optimal"
	if !rep.Optimal() {
		status = "best found within node budget"
	}
	gm := semimatch.Makespan(wg, semimatch.SortedGreedy(wg))
	fmt.Printf("  branch-and-bound: %d (%s)\n", optW, status)
	fmt.Printf("  sorted-greedy:    %d (%.3f x)\n", gm, float64(gm)/float64(optW))
}
