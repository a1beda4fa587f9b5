// Command semiserve is the solving-as-a-service HTTP front end: a
// long-running server over internal/service that canonicalizes and
// fingerprints every posted instance, answers repeats (including
// isomorphic reorderings) from a sharded LRU result cache backed by an
// optional durable disk tier, deduplicates concurrent identical requests
// into one solve, and sheds load with 429 once its admission queue is
// full. Every complete result carries a verifiable certificate
// (internal/cert); the service re-verifies certificates before caching
// and before serving from disk, so a restart warms the cache from disk
// without ever trusting stale or tampered files.
//
// With -peers/-self, N semiserve processes form a shared-nothing fleet:
// requests route by instance fingerprint over a rendezvous-hash ring
// (internal/cluster), and replicas exchange verified cache entries, so
// adding processes multiplies both solve throughput and effective cache
// capacity — see "Clustering" below.
//
// Usage:
//
//	semiserve                          # listen on :8080
//	semiserve -addr 127.0.0.1:0        # free port; scrape it from stdout
//	semiserve -cache 65536 -queue 256  # bigger deployment
//	semiserve -cache-dir /var/cache/semimatch  # durable cache tier
//	semiserve -deadline 2s             # default per-request budget
//	semiserve -http-inflight 32 -max-body 4194304  # tighter memory bounds
//	semiserve -refine                  # local search on every MULTIPROC schedule
//	semiserve -log-level debug         # structured access logs (off silences them)
//	semiserve -ledger solves.jsonl     # append one solve-ledger record per solve
//	semiserve -trace traces.ndjson     # NDJSON request-span trees ("-" = stderr)
//	semiserve -pprof                   # mount net/http/pprof under /debug/pprof/
//	semiserve -sessions 128 -session-idle 10m  # more live dynamic sessions
//	semiserve -sessions 0              # disable the /session endpoints
//	semiserve -self http://10.0.0.3:8080 \
//	          -peers http://10.0.0.3:8080,http://10.0.0.4:8080 \
//	          -addr :8080              # one replica of a two-process fleet
//
// # POST /solve
//
// The request body is an instance in either of two formats, the same two
// cmd/semisolve reads (sched.ParseInstance decodes both):
//
//   - the internal/encode text format ("bipartite ..." or "hypergraph
//     ...", the format cmd/semigen writes);
//   - the internal/sched JSON instance schema (detected by a leading '{'):
//     {"processors": [...], "tasks": [{"name": ..., "configs":
//     [{"procs": [...], "time": ...}]}]}, converted to its hypergraph
//     form.
//
// Query parameters:
//
//	alg       algorithm name or alias from the solver registry (see GET
//	          /algorithms); empty selects the auto policy semisolve runs
//	          for either class: a heuristic race, then ExactUnit or a
//	          budgeted branch-and-bound when the instance allows it.
//	deadline  per-request budget as a Go duration ("500ms", "5s"),
//	          capped by -max-deadline; without it the server's -deadline
//	          default applies. When the budget expires mid-solve the
//	          response carries the best schedule found so far with
//	          "truncated": true instead of failing.
//
// A 200 response is one JSON object:
//
//	{
//	  "kind": "hypergraph",            // bipartite | hypergraph
//	  "fingerprint": "4f1c…",          // canonical content hash (SHA-256)
//	  "algorithm": "auto:EVG",         // solver, or auto:<winning source>
//	  "makespan": 42,
//	  "lower_bound": 40,               // the verified certificate's lower
//	                                   // bound (the makespan itself once
//	                                   // the gap is closed); makespan −
//	                                   // lower_bound is the gap
//	  "status": "heuristic",           // optimal | heuristic | truncated
//	  "optimal": false,                // provably optimal: trust is
//	                                   // verified or attested
//	  "truncated": false,              // incumbent of a solve the deadline
//	                                   // or a cancellation cut short
//	  "trust": "heuristic",            // certificate trust tier the server
//	                                   // established: verified | attested |
//	                                   // heuristic
//	  "witness": "none",               // certificate's optimality argument:
//	                                   // average-load | max-element |
//	                                   // packing | matching | exhaustive |
//	                                   // none (omitted when no certificate
//	                                   // was issued)
//	  "cached": true,                  // served from a cache tier
//	  "cache_tier": "memory",          // which tier: memory | disk | peer
//	                                   // ("none" for freshly solved)
//	  "elapsed_s": 0.0031,             // solve wall-clock (≈0 for hits)
//	  "assignment": [0, 2, 5],         // task → processor (bipartite) or
//	                                   // task → hyperedge id (hypergraph,
//	                                   // in the posted task-grouped order)
//	  "configs": [0, 1, 0],            // JSON instances only: task →
//	                                   // configuration index as posted
//	  "loads": [12, 42, 7]             // per-processor loads
//	}
//
// Results are cached by (fingerprint, algorithm, budget class), so two
// isomorphic instances — the same hypergraph with configurations or
// processors listed in a different order — share one cache entry; the
// assignment (and its certificate) is translated to each requester's own
// numbering before it is returned. Truncated results, and results whose
// certificate fails the server's independent verification, are never
// cached.
//
// With -cache-dir the cache gains a durable tier: verified results are
// additionally persisted as content-addressed entry files (atomic
// tmp+rename writes, versioned header, payload checksum), and a cache
// miss consults the directory before solving — so a restarted server
// answers previously solved instances, including isomorphic
// restatements, from disk. Entries are re-verified on load; a corrupt,
// truncated, stale-version or tampered file is skipped and reaped, never
// served.
//
// Errors are {"error": "..."} with status 400 (malformed instance,
// unknown algorithm, bad deadline), 429 (admission queue full, or more
// than -http-inflight /solve requests in flight; comes with a
// Retry-After header), 504 (deadline expired before any schedule
// existed) or 500.
//
// # GET /algorithms
//
// The solver-registry catalog as newline-delimited JSON, one record per
// algorithm — the same schema `semisolve -list-algorithms -json` and
// `semibench -list-algorithms -json` emit:
//
//	{"name": "EVG", "aliases": ["expected-vector-greedy"],
//	 "class": "MULTIPROC", "kind": "heuristic", "cost": "near-linear",
//	 "optimal": false, "summary": "expected-load vector greedy …"}
//
// # GET /stats
//
// A JSON snapshot of the serving counters and gauges:
//
//	requests          total /solve requests admitted for processing
//	cache_hits        memory-tier hits (isomorphic repeats included)
//	cache_misses      memory-tier misses
//	cache_evictions   LRU evictions
//	cache_entries     current memory-tier size
//	coalesced         single-flight deduplicated concurrent requests
//	solves            fresh solves actually run
//	solve_errors      solves that returned an error
//	truncated         deadline-truncated solves (never cached)
//	verify_failures   results whose certificate failed re-verification
//	overloaded        429 responses (queue full or -http-inflight hit)
//	in_flight         solves executing right now (gauge)
//	queue_len         requests waiting in the admission queue (gauge)
//	queue_depth       admission-queue capacity (-queue)
//	workers           solver worker count
//	uptime_s          seconds since the service started
//
// With -cache-dir the disk tier adds disk_hits, disk_misses,
// disk_writes, disk_write_errors and disk_reaped (garbled or
// unverifiable entries removed on load). With -peers the peer tier adds
// peer_hits (entries adopted from the owning replica after local
// re-verification), peer_misses, peer_errors, peer_verify_failures
// (rejected peer entries — shape mismatch or lying certificate; never
// cached) and peer_served (entries handed to peers).
//
// # GET /metrics
//
// The same counters (plus request-latency and queue-wait histograms) in
// Prometheus text exposition format 0.0.4, served from a dependency-free
// registry. Families are prefixed semimatch_; the full taxonomy is in
// the README's observability section. Counters are func-backed views of
// the service's existing atomics, so scraping costs the request path
// nothing.
//
// # GET /debug/solves
//
// Live search introspection: a JSON list of in-flight solves, each with
// the instance fingerprint, algorithm, running time, and the engine's
// latest progress snapshot (nodes expanded, nodes/sec, incumbent, bound,
// gap). Empty list when idle. With -pprof, net/http/pprof is additionally
// mounted under /debug/pprof/.
//
// # Observability
//
// Every response carries an X-Request-Id header (16 hex chars). With
// -log-level (debug|info|warn|error; "off" disables), each request emits
// one structured log/slog line: id, method, path, status, elapsed, and —
// for solves — alg, fp (fingerprint prefix), cache tier and solve
// status. With -trace, each /solve request appends its span tree
// (request → canonicalize, queue-wait, solve…, verify, cache-admission)
// as NDJSON, one tree per request. With -ledger, every fresh solve
// appends a solve-ledger record (instance features, algorithm, wall,
// nodes, status; source "service") — the same JSONL schema semibench's
// -ledger writes, see internal/telemetry.
//
// # Dynamic sessions (POST /session, -sessions)
//
// A session is a long-lived scheduling instance that evolves by events
// instead of being re-posted whole: tasks arrive, depart and change
// weight, and after every event the session holds a feasible schedule —
// first by an instant online patch, then (when the instance is small
// enough) by a bounded exact re-solve warm-started from the patched
// schedule and adopted only when it beats the patch on the
// migration-aware objective makespan + λ·Σ(moved task weight). See
// internal/session and the README's dynamic-sessions section.
//
// POST /session opens one. The body is a session script header (the
// same JSON object that heads a semisolve -session script file); every
// field is optional except procs:
//
//	{"procs": 4,                // processor count (required, ≥ 1)
//	 "multi": false,            // MULTIPROC session (hypergraph events)
//	 "lambda": 1,               // migration-cost weight λ (0 = pure makespan)
//	 "node_budget": 2000000,    // per-re-solve node cap
//	 "exact_task_limit": 16,    // skip the exact stage above this many tasks
//	 "compare_cold": false}     // also run a cold re-solve per event, for
//	                            // the warm/cold node comparison (measurement)
//
// A 201 response is {"id": "...", "procs": 4, "multi": false,
// "idle_timeout_s": 300}; 429 when -sessions live sessions already
// exist. Sessions are in-memory (not replicated, not on the cluster
// ring) and are evicted after -session-idle without events, reads or an
// open stream. Session re-solves acquire the same admission slots as
// /solve requests — one shared capacity — and run single-worker, so
// per-event node counts are deterministic. An overloaded service skips
// the re-solve (the patched schedule stands, solve_status
// "overloaded") rather than queue-jumping. With -ledger, each adopted
// or attempted re-solve appends a ledger record with source "session";
// with -trace, each event emits a session-event span tree.
//
// GET /session lists open sessions; GET /session/{id} returns the
// session's current state (schedule, loads, makespan, live
// tasks, event count); DELETE /session/{id} closes it (204).
//
// # POST /session/{id}/events
//
// The body is one JSON event per line (NDJSON; a single event is a
// one-line batch):
//
//	{"op": "arrive", "task": {"id": "t1",
//	  "configs": [{"procs": [0], "weight": 5}, {"procs": [2], "weight": 5}]}}
//	{"op": "arrive", "task": {"id": "t2",
//	  "configs": [{"procs": [0, 1], "weight": 3}, {"procs": [2], "weight": 7}]}}
//	{"op": "reweigh", "id": "t1", "weight": 9}
//	{"op": "depart", "id": "t1"}
//
// A task arrives with its configurations — the ways it may run. In a
// SINGLEPROC session every configuration names exactly one processor
// (t1 above may run on processor 0 or 2); in a MULTIPROC session a
// configuration's weight lands on every processor in its set, and one
// configuration is chosen (t2). Events apply in order; the
// first bad event stops the batch with 400 (410 once the session is
// closed) and the response still carries the reports of the events
// already applied. A 200 response is {"reports": [SessionReport, ...]}
// with one report per event:
//
//	{"seq": 7,                   // session-wide event sequence number
//	 "op": "arrive", "task": "t7",
//	 "makespan": 42,             // after this event (adopted schedule)
//	 "patched_makespan": 45,     // the online patch alone
//	 "lower_bound": 40,
//	 "score": 50,                // makespan + λ·migration_cost
//	 "status": "optimal",        // adopted schedule's provenance:
//	                             // "patched", or the re-solve's status
//	 "solve_status": "optimal",  // re-solve outcome: a solve status, or
//	                             // "skipped" | "overloaded" | "error"
//	 "adopted": true,            // re-solve beat the patch and replaced it
//	 "migrations": 2,            // tasks the adopted schedule moved
//	 "migration_cost": 8,        // Σ weight of moved tasks
//	 "nodes": 153,               // warm-started re-solve's BnB nodes
//	 "cold_nodes": 418,          // cold comparison run's (compare_cold)
//	 "tasks": 12, "elapsed_ns": 2100000}
//
// # GET /session/{id}/events (SSE)
//
// The same path with GET streams the session over Server-Sent Events
// (Content-Type text/event-stream, exempt from the server's write
// timeout). Events, each with a JSON data payload:
//
//	state      first event on connect: the session state snapshot
//	incumbent  a re-solve improved its schedule mid-search: {"seq": ...,
//	           "makespan": ..., "assignment": [...], "solver": ...,
//	           "elapsed_s": ..., "final": ...} — seq ties the trajectory
//	           to the session event that triggered the re-solve
//	report     one SessionReport per applied event (same object as the
//	           POST response)
//	closed     the session was deleted or evicted; the stream ends
//
// A slow consumer is dropped-from, not waited-for: each subscriber has a
// bounded buffer and pushes beyond it are discarded, so streaming never
// stalls event processing.
//
// # GET /healthz
//
// "ok" with status 200; for load balancers and the CI smoke test.
//
// # Clustering (-peers, -self)
//
// -peers takes the comma-separated base URLs of every replica in the
// fleet (bare host:port is accepted; listing or omitting this process's
// own URL both work) and -self this replica's URL as peers reach it.
// Every replica builds the same rendezvous-hash ring from that static
// list — spellings and order are normalized away — so the fleet agrees
// on which replica owns each instance fingerprint with no coordination,
// and removing a replica remaps only its own ~1/N share of keys.
// Because fingerprints are canonical (isomorphic instances hash equal),
// all restatements of one instance converge on one replica's cache and
// single-flight group no matter where clients post them.
//
// Two cooperating mechanisms use the ring:
//
// Request forwarding (-forward, default true): a /solve request whose
// fingerprint another replica owns is relayed there in one hop, marked
// with an X-Semimatch-Hop header so the receiving replica always answers
// locally — a stale peer list degrades to one extra hop, never a loop.
// The relayed response carries X-Semimatch-Forwarded-To naming the
// owner; a transport failure falls back to a local solve, so a dead
// replica costs latency, not availability. With -forward=false every
// replica answers its own traffic and relies on cache peering alone.
//
// Cache peering (always on with -peers): on a local memory+disk miss,
// the single-flight leader asks the owning replica for its entry over
//
//	GET /internal/cache/{key}
//
// where {key} is the path-escaped cache key "fingerprint|algorithm|
// budget-class". The owner answers from its memory or disk tier with
// the entry JSON — the same durable fields the disk tier persists (key
// echo, kind, fingerprint, algorithm, assignment, certificate) — or 404
// on a miss. The fetching replica re-verifies the entry's certificate
// against its own canonical instance and derives the makespan, loads,
// lower bound and optimality itself before adopting it (cache_tier
// "peer"); keys an older replica sends for those are ignored. No
// replica ever trusts another's arithmetic: a tampered or lying entry
// is dropped, counted in peer_verify_failures and verify_failures, and
// never enters any cache tier. Peer fetches run under -peer-timeout,
// tightened to half the request's remaining deadline, so a slow peer
// cannot hold a coalesced group past its budget.
package main
