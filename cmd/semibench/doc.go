// Command semibench regenerates the paper's evaluation tables. Experiment
// jobs — one generated instance each — are sharded across all cores by the
// batch worker pool, so wall-clock time drops roughly linearly with the
// core count. Algorithm columns resolve through the solver registry; use
// -list-algorithms to see the catalog and -alg to restrict columns.
//
// Usage:
//
//	semibench -table 1            # Table I: instance statistics
//	semibench -table 2            # Table II: MULTIPROC-UNIT quality
//	semibench -table 3            # Table III: related weights
//	semibench -table 8            # TR Table 8: random weights
//	semibench -table sp           # SINGLEPROC tables (Sec. V-B), d=10
//	semibench -table sp -d 2      # ... other degree parameters
//	semibench -table all          # everything
//	semibench -quick              # reduced grid (3 seeds, 2 sizes)
//	semibench -seeds 5 -workers 1 # methodology knobs
//	semibench -timeout 30s        # abort cleanly when the budget expires
//	semibench -alg SGH,EVG        # restrict algorithm columns
//	semibench -list-algorithms    # print the solver catalog and exit
//	semibench -list-algorithms -json  # catalog as NDJSON (one SolverRecord per line,
//	                                  # the same records semiserve's GET /algorithms serves)
//	semibench -table 2 -json      # machine-readable output
//	semibench -bench              # exact-solver perf micro-grid → BENCH.json
//	semibench -bench -workers 8 -bench-seeds 10 -bench-out BENCH-8w.json
//	semibench -bench -max-nodes-regress   # fail if any case explores more nodes
//	                                      # than in the latest BENCH_<n>.json
//	semibench -bench -bench-trace         # attach solve spans (node counts unchanged)
//	semibench -bench -ledger solves.jsonl # append one SolveRecord per measured solve
//	semibench -cpuprofile cpu.pb.gz -bench   # profile any run mode
//	semibench -memprofile heap.pb.gz -table 2
//
// # JSON output
//
// With -json, semibench emits one newline-delimited JSON object per table
// instead of the text rendering — the format consumed by the BENCH_*.json
// quality/time trajectories. MULTIPROC tables (1, 2, 3, 8) have this
// schema:
//
//	{
//	  "table": "2",                    // which table produced the object
//	  "kind": "multiproc",
//	  "weights": "unit",               // unit | related | random
//	  "algorithms": ["SGH", "VGH", "EGH", "EVG"],   // column order
//	  "rows": [
//	    {
//	      "instance": "FG-5-1-MP",     // family-size name, Table I style
//	      "v1": 1280, "v2": 256,       // tasks, processors
//	      "edges": 6400, "pins": 32000,// median |N|, median Σ|h∩V2|
//	      "lb": 125,                   // median Eq. (1) lower bound
//	      "quality": {"SGH": 1.02},    // median makespan/LB per algorithm
//	      "time_s": {"SGH": 0.004}     // mean wall-clock seconds
//	    }
//	  ],
//	  "avg_quality": {"SGH": 1.03},    // table-wide means
//	  "avg_time_s": {"SGH": 0.006}
//	}
//
// SINGLEPROC tables ("sp") replace weights with the generator parameters
// and measure quality against the exact optimum:
//
//	{
//	  "table": "sp",
//	  "kind": "singleproc",
//	  "generator": "FewgManyg",        // FewgManyg | HiLo
//	  "d": 10, "g": 32,                // degree and group parameters
//	  "algorithms": ["basic", "sorted", "double", "expected"],
//	  "rows": [
//	    {
//	      "instance": "FG-5-1-d10-g32",
//	      "v1": 1280, "v2": 256, "edges": 12800,
//	      "opt": 5,                    // median optimal makespan
//	      "exact_time_s": 0.01,        // mean exact-solver runtime
//	      "quality": {"basic": 1.2},   // median makespan/OPT per algorithm
//	      "time_s": {"basic": 0.001}
//	    }
//	  ],
//	  "avg_quality": {"basic": 1.18},
//	  "avg_time_s": {"basic": 0.001}
//	}
//
// The fig3 worst-case scaling view is emitted as:
//
//	{"table": "fig3", "kind": "adversarial", "rows": [
//	  {"k": 3, "tasks": 15, "procs": 8, "basic": 3, "sorted": 3,
//	   "double": 2, "expected": 2, "optimal": 1, "online_ratio": 3.0,
//	   "exact_time_s": 0.001}
//	]}
//
// # Perf mode (-bench): the BENCH.json trajectory
//
// -bench runs the seeded exact-solver micro-grid of internal/bench's
// RunPerf — hard 25-task instances, sequential (BnB-SP/BnB-MP) vs
// parallel (BnB-SP-Par/BnB-MP-Par) — and writes one indented JSON object
// (schema "semimatch-bench/v1"):
//
//	{
//	  "schema": "semimatch-bench/v1",
//	  "created": "2026-07-30T12:00:00Z",
//	  "go": "go1.24.0", "goos": "linux", "goarch": "amd64",
//	  "gomaxprocs": 8, "workers": 8, "seeds": 5, "max_nodes": 300000000,
//	  "par_engine": "rounds",           // deterministic parallel rows
//	  "cases": [
//	    {
//	      "family": "mp-partition-hard",
//	      "case": "mp-partition-hard/seed=1",
//	      "class": "MULTIPROC",
//	      "solver": "BnB-MP-Par", "workers": 8,
//	      "wall_seconds": 0.031,
//	      "nodes": 1204511,             // search-tree nodes expanded
//	      "nodes_per_sec": 3.9e7,
//	      "makespan": 321, "optimal": true,
//	      "limit": false,               // true = node budget exhausted
//	      "speedup_vs_seq": 21.8        // parallel rows only (wall ratio)
//	    }
//	  ],
//	  "summary": [                      // per family
//	    {"family": "mp-partition-hard", "seq_solver": "BnB-MP",
//	     "par_solver": "BnB-MP-Par", "cases": 5, "seq_solved": 4,
//	     "par_solved": 5, "seq_seconds": 9.74, "par_seconds": 0.15,
//	     "wall_speedup": 66.7, "geomean_speedup": 44.4}
//	  ]
//	}
//
// When both solvers prove optimality their makespans must agree; the run
// fails otherwise, so every recorded BENCH.json doubles as an equivalence
// witness. Each -bench run writes two copies: -bench-out (default
// BENCH.json) always holds the latest report, and a numbered
// BENCH_<n>.json snapshot is added alongside it (n = one past the
// highest existing index), so the perf trajectory accumulates across
// runs and PRs instead of being overwritten. EXPERIMENTS.md records the
// repo's committed runs.
//
// Two observability knobs ride along: -bench-trace attaches a telemetry
// span tree to every measured solve (spans are recorded at phase
// boundaries, so node counts are unchanged by construction — the
// BENCH_5.json run is the committed proof), and -ledger FILE appends one
// solve-ledger record (instance features, algorithm, wall, nodes,
// status; source "bench") per measured solve, the same JSONL schema
// semiserve's -ledger writes.
package main
