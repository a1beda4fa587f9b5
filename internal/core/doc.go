// Package core implements the paper's primary contribution: semi-matching
// algorithms for scheduling parallel tasks under resource constraints
// (Benoit, Langguth & Uçar, IPDPSW 2013).
//
// SINGLEPROC (bipartite graphs, Sec. IV-A/B):
//
//   - BasicGreedy, SortedGreedy, DoubleSorted, ExpectedGreedy — the four
//     greedy heuristics (Algorithms 1–3). They accept weighted graphs too;
//     on unit graphs they are exactly the paper's algorithms.
//   - ExactUnit — the exact polynomial-time algorithm for SINGLEPROC-UNIT:
//     binary-search or incremental search on the deadline D, testing
//     feasibility with a maximum-matching computation on the graph where
//     every processor has capacity D (either by materializing the paper's
//     D-fold replicated graph G_D, or directly with a capacitated matcher).
//   - HarveyOptimal — the cost-reducing-path optimal semi-matching
//     algorithm of Harvey, Ladner, Lovász & Tamir [14], as an independent
//     exact baseline.
//
// MULTIPROC (hypergraphs, Sec. IV-C/D):
//
//   - SortedGreedyHyp (SGH), ExpectedGreedyHyp (EGH), VectorGreedyHyp
//     (VGH), ExpectedVectorGreedyHyp (EVG) — Algorithms 4–5 plus the two
//     vector heuristics; the vector ones compare candidates on the
//     processors they touch, where the paper copies and sorts the whole
//     load vector (the tests keep that variant as their reference).
//   - LowerBound — the load-balance lower bound LB of Eq. (1).
//
// All algorithms are deterministic: tasks are visited in a stable order and
// ties break toward the lowest index, so results are reproducible.
package core
