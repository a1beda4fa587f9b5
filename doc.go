// Package semimatch is a Go implementation of the semi-matching algorithms
// for scheduling parallel tasks under resource constraints from:
//
//	Anne Benoit, Johannes Langguth, Bora Uçar.
//	"Semi-matching algorithms for scheduling parallel tasks under
//	resource constraints." IEEE IPDPSW 2013, pp. 1744–1753.
//
// # The problems
//
// SINGLEPROC: n sequential tasks, each restricted to a subset of p
// processors, minimize the maximum processor load (makespan). This is
// semi-matching in a bipartite graph; NP-complete with general weights,
// polynomial with unit weights.
//
// MULTIPROC: tasks are parallel — each task chooses one configuration,
// a set of processors that all spend w time on it. This is semi-matching
// in a bipartite hypergraph; NP-complete even with unit weights, and not
// approximable within 2−ε unless P=NP (Theorem 1).
//
// # The unified solve API: Problem → Run → Report
//
// Both encodings solve through one class-generic surface. A Problem wraps
// either instance kind; Run answers it; the Report carries the schedule
// in the problem's own encoding, the makespan, the certificate's lower
// bound, the optimality status (StatusOptimal / StatusHeuristic /
// StatusTruncated, decided by the certificate), the producing solver's
// name, search statistics and wall time:
//
//	g := ...  // *semimatch.Graph (SINGLEPROC)
//	h := ...  // *semimatch.Hypergraph (MULTIPROC)
//
//	rg, err := semimatch.Run(ctx, semimatch.GraphProblem(g))
//	rh, err := semimatch.Run(ctx, semimatch.HypergraphProblem(h))
//	// rg.Makespan, rg.Status, rg.Solver, rh.LowerBound, ...
//
// Without options, Run applies the auto policy: a race over the class's
// heuristic lineup, then — when the instance is small enough — an exact
// branch-and-bound attempt that can prove optimality. Functional options
// tune one run:
//
//	rep, err := semimatch.Run(ctx, p,
//	    semimatch.WithAlgorithm("bnb-par"),      // any registry name or alias
//	    semimatch.WithDeadline(2*time.Second),   // anytime: truncates, never fails
//	    semimatch.WithWorkers(8),                // parallel solver pool
//	    semimatch.WithNodeBudget(50_000_000),    // branch-and-bound cap
//	    semimatch.WithRefine(),                  // MULTIPROC local search
//	)
//
// Run is an anytime solver: a deadline or cancellation degrades the
// answer to the best schedule found so far (StatusTruncated), and a node
// budget to the best schedule the budget allowed (StatusHeuristic),
// instead of discarding it; an Observer watches the incumbent tighten
// while a long solve is still running:
//
//	rep, err := semimatch.Run(ctx, p,
//	    semimatch.WithAlgorithm("bnb-par"),
//	    semimatch.WithObserver(func(inc semimatch.Incumbent) {
//	        log.Printf("makespan %d after %v", inc.Makespan, inc.Elapsed)
//	    }))
//
// Observations are monotonically non-increasing in makespan, serialized,
// polled at solver checkpoints (never per search node), and closed by one
// Final observation that matches the returned Report. Every dispatch
// layer — SolveProblems batching, the solving service, the CLIs — routes
// through Run, so the observer and the anytime contract are available
// everywhere.
//
// # Batch solving
//
// SolveProblems shards many Problems — both classes freely mixed — across
// a GOMAXPROCS-wide worker pool with per-problem error isolation; each
// problem runs Run with the same options, by default the auto policy:
//
//	outcomes, err := semimatch.SolveProblems(ctx, problems,
//	    semimatch.WithRefine(),              // local search on every candidate
//	    semimatch.WithDeadline(time.Second), // per-problem budget
//	)
//	// outcomes[i].Report.Makespan, .Status, outcomes[i].Err ...
//
// # Direct algorithm access
//
// The paper's algorithms remain addressable directly: the exact
// SINGLEPROC-UNIT solver (ExactUnit, a bisection on the deadline D over
// capacitated matchings; HarveyOptimal as an independent baseline), the greedy
// heuristics basic/sorted/double-sorted/expected (bipartite) and
// SGH/VGH/EGH/EVG (hypergraph), the Eq. (1) lower bound, the paper's
// random instance generators and worst-case families, and a scheduling
// front end (named tasks and processors, Gantt charts). The front end's
// Solve and SolveByName run through Run with the named algorithm, so a
// Schedule carries the Report's status and certificate, and it is
// Optimal exactly when the certificate proves it. The branch-and-bound
// solvers for small NP-hard instances, sequential and parallel
// (deterministic rounds), are reached through Run with WithAlgorithm
// ("BnB-SP", "BnB-MP", "bnb-par", ...), as are the heuristic race alone
// (the auto policy with WithExactLimit(-1)) and local-search refinement
// (WithRefine).
//
// # Solver discovery
//
// Every algorithm is registered once in a central solver registry with
// its capability metadata — problem class (SINGLEPROC/MULTIPROC), kind
// (heuristic/exact/online) and cost class. WithAlgorithm, the heuristic
// race's membership, the benchmark tables and the auto policy's
// exact-attempt stage all resolve through it:
//
//	for _, s := range semimatch.Solvers() {
//	    fmt.Println(s.Name, s.Class, s.Kind, s.Cost)
//	}
//	sol, err := semimatch.LookupSolver("evg")       // aliases work
//
// # Solving as a service
//
// Fingerprint(instance) hashes an instance's canonical form — the
// deterministic reordering that makes isomorphic instances byte-identical
// — so identical problems can be recognized across requests. NewService
// builds on it: a long-running, concurrency-safe solving service with a
// sharded LRU result cache keyed by (fingerprint, algorithm, budget
// class), single-flight deduplication and bounded-queue admission
// control. The cache's shards are index-linked slots that hold each
// result flat, with no per-entry result object, so a full cache adds
// little to every garbage collection. Both encodings flow through one
// request path onto Run:
//
//	svc := semimatch.NewService(semimatch.ServiceOptions{})
//	res, err := svc.Solve(ctx, h, "")     // auto policy; or any registry name
//	// res.Makespan, res.Assignment, res.Cached, res.Truncated ...
//
// Deadline-truncated solves return the best schedule found so far with
// Truncated set (and are kept out of the cache). cmd/semiserve wraps a
// Service in an HTTP server: POST /solve, GET /algorithms, GET /stats.
//
// # Proof-carrying results: certificates
//
// Every complete Run report carries a Certificate: the instance's
// canonical fingerprint, the schedule, the claimed makespan and lower
// bound, and an optimality witness naming the argument that closes the
// gap (a re-derivable lower bound — WitnessAverageLoad,
// WitnessMaxElement, WitnessPacking, WitnessMatching — or
// WitnessExhaustive for a finished branch-and-bound; WitnessNone when
// nothing closes the gap). The certificate alone decides optimality: a
// Report is StatusOptimal exactly when its witness is not WitnessNone,
// and its LowerBound is the certificate's.
// Verify re-derives everything from the instance alone and grades the
// claim into a TrustTier — TierVerified when the optimality argument is
// re-proven from first principles, TierAttested when feasibility and
// bounds check out but optimality rests on the search's exhaustion
// claim, TierHeuristic otherwise. A certificate that lies is rejected
// with an error, never silently downgraded:
//
//	rep, err := semimatch.Run(ctx, p, semimatch.WithVerify())
//	// rep.Certificate, rep.Trust; a failed verification strips
//	// StatusOptimal and reports ErrVerifyFailed alongside the report.
//
//	tier, err := semimatch.Verify(h, rep.Certificate) // independent check
//
// The Service builds its cache integrity on this contract: results must
// verify before entering any cache tier, and ServiceOptions.CacheDir
// adds a durable disk tier whose entries are re-verified on load — so a
// restarted service (or another replica sharing the directory) serves
// only answers it can prove, even for isomorphic restatements of an
// instance.
//
// # Telemetry: traces and search introspection
//
// WithTrace attaches a span tree to the Report — compile, root-bounds,
// greedy and search phases with their wall times and attributes (nodes,
// bounds, the winning solver) — and WithProgress streams periodic
// search-progress snapshots (nodes expanded, nodes/sec, incumbent,
// bound, optimality gap) from the exact engines:
//
//	rep, err := semimatch.Run(ctx, p,
//	    semimatch.WithTrace(),
//	    semimatch.WithProgress(func(s semimatch.SearchProgress) {
//	        log.Printf("%d nodes (%.0f/s), gap %.1f%%", s.Nodes, s.NodesPerSec, s.Gap*100)
//	    }))
//	rep.Trace.Format()               // human-readable span listing
//	rep.Trace.WriteNDJSON(os.Stdout) // one span per line
//
// Both are free when unused: spans no-op on nil receivers and progress
// is polled only at the engines' existing checkpoints, so
// instrumentation never changes node counts. cmd/semiserve layers
// service-level observability on top — Prometheus-text GET /metrics,
// live GET /debug/solves introspection, structured access logs, NDJSON
// request traces and a JSONL solve ledger (see cmd/semiserve and
// internal/telemetry).
//
// # Dynamic sessions: scheduling under change
//
// A one-shot Run answers a frozen instance; internal/session keeps a
// schedule alive while the instance changes. A session consumes
// arrive/depart/reweigh events, keeps the schedule feasible after each
// one with the paper's online rule lifted to processor sets, then
// re-runs the solve pipeline warm-started from the patched schedule —
// WithWarmStart seeds the branch-and-bound engines with it as the
// initial incumbent, so the search prunes against the previous answer
// instead of rediscovering it. The re-solved schedule is adopted only
// when it beats the patch on makespan + λ·Σ(moved task weight), so
// running tasks are not reshuffled for marginal gains.
//
// The surface is cmd/semiserve's session endpoints (POST /session,
// NDJSON events, a Server-Sent-Events incumbent stream), replayable
// offline as a script:
//
//	$ cat burst.ndjson
//	{"procs": 3, "lambda": 1}
//	{"op": "arrive", "task": {"id": "t1", "configs": [{"procs": [0], "weight": 4}, {"procs": [1], "weight": 4}]}}
//	{"op": "arrive", "task": {"id": "t2", "configs": [{"procs": [0], "weight": 6}]}}
//	{"op": "reweigh", "id": "t1", "weight": 9}
//	{"op": "depart", "id": "t2"}
//	$ semisolve -session burst.ndjson
//	#1    arrive  t1       tasks=1   makespan=4 (patched 4)
//	...
//	warm starts: 3 nodes vs 11 cold (72.7% saved)
//
// The session workload of the service benchmark (perfbench/run.sh)
// replays generated scripts against those endpoints and reports
// per-event latency and the warm/cold node ratio.
//
// See examples/ for runnable programs and cmd/semibench for the
// experiment harness.
package semimatch
