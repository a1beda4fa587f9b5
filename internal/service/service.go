// Package service is the solving-as-a-service core: a long-running,
// cache-fronted solver that answers repeated requests for the same
// instance from memory instead of recomputing them.
//
// A request is (instance, algorithm, budget). The instance — bipartite
// SINGLEPROC or hypergraph MULTIPROC — is canonicalized and fingerprinted
// (internal/encode), so isomorphic instances (same structure under
// configuration/processor reordering) share one cache entry; the solve
// itself runs on the canonical form and the resulting schedule is
// translated back to each requester's own hyperedge numbering. Results
// are cached in a sharded LRU keyed by (fingerprint, algorithm, budget
// class), and N concurrent requests for the same key trigger exactly one
// solve (single-flight deduplication).
//
// Admission control keeps the service responsive under overload: at most
// QueueDepth solves may be in flight (queued or running, cache hits and
// coalesced duplicates excluded); beyond that Solve fails fast with
// ErrOverloaded, which the HTTP front end (cmd/semiserve) maps to 429.
// Each admitted solve runs under the request context plus an optional
// default deadline; deadline-truncated solves still return the best
// schedule found so far, flagged Truncated and kept out of the cache.
//
// Dispatch is one solve.RunOptions call per solve (internal/solve): both
// encodings are wrapped as solve.Problems; named algorithms resolve via
// the solver registry, and the empty algorithm name selects Run's auto
// policy for either class — the same one semisolve runs: a heuristic race
// first, an exact attempt when the instance allows it, and fallback to the
// best schedule found when the deadline expires.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/cert"
	"semimatch/internal/encode"
	"semimatch/internal/hypergraph"
	"semimatch/internal/registry"
	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

// Defaults for the zero Options value.
const (
	// DefaultCacheEntries is the result-cache capacity when
	// Options.CacheEntries is zero.
	DefaultCacheEntries = 4096
	// DefaultCacheShards is the cache shard count when Options.CacheShards
	// is zero.
	DefaultCacheShards = 16
	// DefaultQueueDepth is the admission bound when Options.QueueDepth is
	// zero: the maximum number of solves in flight before Solve starts
	// failing fast with ErrOverloaded.
	DefaultQueueDepth = 64
)

// Sentinel errors of the serving layer.
var (
	// ErrOverloaded reports that the solve queue is full; the request was
	// rejected without solving. The HTTP layer maps it to 429.
	ErrOverloaded = errors.New("service: overloaded: solve queue is full")
	// ErrBadInstance reports an unusable instance (nil, or an unsupported
	// type).
	ErrBadInstance = errors.New("service: bad instance")
	// ErrUnknownAlgorithm wraps the registry's unknown-name error.
	ErrUnknownAlgorithm = errors.New("service: unknown algorithm")
)

// Options configures a Service; the zero value serves with the defaults
// above and no default deadline.
type Options struct {
	// CacheEntries bounds the result cache; 0 means DefaultCacheEntries,
	// negative disables caching entirely.
	CacheEntries int
	// CacheShards is the cache shard count; 0 means DefaultCacheShards.
	CacheShards int
	// QueueDepth bounds the solves in flight (queued or running); beyond
	// it Solve fails fast with ErrOverloaded. 0 means DefaultQueueDepth.
	QueueDepth int
	// Workers bounds concurrently running solves; 0 means GOMAXPROCS.
	Workers int
	// DefaultDeadline is applied to requests whose context has no
	// deadline; 0 means none.
	DefaultDeadline time.Duration
	// CacheDir enables the durable cache tier: a content-addressed,
	// checksummed on-disk store under the memory LRU, so warm state
	// survives restarts (and can be pre-warmed from a corpus). Entries
	// are admitted back into service only after their certificate
	// verifies against the canonical instance; corrupt, truncated or
	// wrong-version files are skipped and reaped. Empty disables the
	// tier. The directory is created if needed; creation or write
	// failures disable nothing else and are surfaced in Stats.
	CacheDir string
	// Refine post-processes every MULTIPROC schedule with local search
	// (never worse), named and auto solves alike, as solve.WithRefine does.
	Refine bool
	// LedgerPath appends one JSONL telemetry.SolveRecord per fresh solve
	// (cache and disk hits excluded — the ledger already has those solves)
	// to the named file; empty disables the ledger. An open failure
	// disables it too and is surfaced through
	// semimatch_ledger_errors_total.
	LedgerPath string
	// TraceWriter, when non-nil, receives one NDJSON span tree per
	// request: canonicalize, queue-wait, the adopted solve trace, verify
	// and cache-admission phases under a "request" root. Writes are
	// serialized; the writer need not be concurrency-safe.
	TraceWriter io.Writer
	// Peers enables the peer-cache tier behind the memory and disk
	// caches: on a local miss the single-flight leader asks the replica
	// that owns the instance's fingerprint for its entry, re-verifies the
	// entry's certificate locally, and adopts it on success (one peer
	// fetch per coalesced group). nil disables the tier. See PeerCache.
	Peers PeerCache
	// PeerTimeout caps one peer-cache fetch; 0 means DefaultPeerTimeout.
	// The fetch deadline is additionally tightened to half the request's
	// remaining budget, so a slow peer can never consume time the local
	// fallback solve would need.
	PeerTimeout time.Duration
}

func (o Options) cacheEntries() int {
	if o.CacheEntries == 0 {
		return DefaultCacheEntries
	}
	return o.CacheEntries
}

func (o Options) cacheShards() int {
	if o.CacheShards <= 0 {
		return DefaultCacheShards
	}
	return o.CacheShards
}

func (o Options) queueDepth() int {
	if o.QueueDepth <= 0 {
		return DefaultQueueDepth
	}
	return o.QueueDepth
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one solved (or cache-served) request.
type Result struct {
	// Kind is "bipartite" or "hypergraph".
	Kind string
	// Fingerprint is the canonical content hash of the instance.
	Fingerprint string
	// Algorithm is the canonical solver name, or "auto:<source>" when the
	// auto policy chose the winner (<source> is the winning solver,
	// suffixed "-incumbent" for an exact search's unproven schedule).
	Algorithm string
	// Makespan is the schedule's maximum processor load.
	Makespan int64
	// Assignment maps each task to its processor (bipartite) or chosen
	// hyperedge id (hypergraph), in the requester's own numbering. Shared
	// with the cache on hits — treat as immutable.
	Assignment []int32
	// Loads is the per-processor load vector. Shared with the cache on
	// hits — treat as immutable.
	Loads []int64
	// LowerBound is the verified certificate's lower bound on the
	// optimal makespan (see certify); Makespan − LowerBound is the proven
	// optimality gap.
	LowerBound int64
	// Certificate is the proof-carrying form of this result (see
	// internal/cert); the service verifies it before caching or serving
	// from disk. Shared with the cache on hits — treat as immutable.
	Certificate *cert.Certificate
	// Trust is the tier the service's own verification established for
	// Certificate: TierVerified/TierAttested for independently checked
	// results, TierHeuristic otherwise.
	Trust cert.Tier
	// Optimal reports a provably optimal schedule: the certificate
	// verified at TierAttested or above.
	Optimal bool
	// Truncated reports a solve the deadline or a cancellation cut short
	// (or whose exact stage failed): the schedule is valid but not
	// provably best. Truncated results are never cached; a node-budget
	// stop is complete and cacheable.
	Truncated bool
	// Cached reports that this result was served from a cache tier
	// (memory, disk or a peer replica) rather than a fresh solve.
	Cached bool
	// Tier names the cache tier that answered this request: "memory",
	// "disk", "peer" (adopted from the owning replica after local
	// re-verification), or "none" for a fresh solve. It is always
	// stamped, so consumers (load generators, the ledger, access logs) can
	// distinguish tiers without inference; Cached == (Tier != "none").
	Tier string
	// Elapsed is the wall-clock solve time (zero-ish for cache hits).
	Elapsed time.Duration

	// noStore marks a result that failed certificate verification: it is
	// still returned — flagged non-optimal with heuristic trust — but
	// never admitted to any cache tier.
	noStore bool
	// fromDisk marks a result loaded from the disk tier, so the teardown
	// path promotes it to the memory LRU without rewriting the file.
	fromDisk bool
	// fromPeer marks a result adopted (after local re-verification) from
	// the owning replica's cache; the teardown path admits it to both
	// local tiers like a fresh solve.
	fromPeer bool
}

// Stats is a counters snapshot for monitoring (GET /stats).
type Stats struct {
	Requests       uint64 `json:"requests"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheEntries   int    `json:"cache_entries"`
	// Coalesced counts requests answered by another request's in-flight
	// solve (single-flight deduplication).
	Coalesced   uint64 `json:"coalesced"`
	Solves      uint64 `json:"solves"`
	SolveErrors uint64 `json:"solve_errors"`
	Truncated   uint64 `json:"truncated"`
	// Overloaded counts requests rejected by admission control.
	Overloaded uint64 `json:"overloaded"`
	// VerifyFailures counts results whose certificate failed independent
	// verification — fresh solves barred from the cache, and disk entries
	// rejected and reaped. Nonzero means a solver bug, a corrupted store,
	// or tampering.
	VerifyFailures uint64 `json:"verify_failures"`
	// DiskHits/DiskMisses/DiskWrites/DiskWriteErrors/DiskReaped are the
	// durable tier's counters (all zero when CacheDir is unset): lookups
	// served after verification, lookups that found nothing usable,
	// entries persisted, failed persists, and corrupt/stale/unverifiable
	// files deleted on load.
	DiskHits        uint64 `json:"disk_hits"`
	DiskMisses      uint64 `json:"disk_misses"`
	DiskWrites      uint64 `json:"disk_writes"`
	DiskWriteErrors uint64 `json:"disk_write_errors"`
	DiskReaped      uint64 `json:"disk_reaped"`
	// PeerHits/PeerMisses/PeerErrors are the peer tier's outbound
	// counters (all zero without Options.Peers): entries adopted from the
	// owning replica after local re-verification, owner lookups that
	// found nothing, and fetches that failed in transport.
	PeerHits   uint64 `json:"peer_hits"`
	PeerMisses uint64 `json:"peer_misses"`
	PeerErrors uint64 `json:"peer_errors"`
	// PeerVerifyFailures counts peer entries rejected before admission —
	// wrong shape, inconsistent or unverifiable certificate. Certificate
	// lies are additionally counted in VerifyFailures. Nonzero means a
	// buggy or hostile replica; the entries never reach any cache tier.
	PeerVerifyFailures uint64 `json:"peer_verify_failures"`
	// PeerServed counts entries this replica handed to peers over
	// GET /internal/cache/{key}.
	PeerServed uint64 `json:"peer_served"`
	InFlight   int64  `json:"in_flight"`
	QueueDepth int    `json:"queue_depth"`
	// QueueLen is the number of admission slots held right now — solves
	// queued or running; QueueDepth − QueueLen is the remaining headroom
	// before requests shed.
	QueueLen int `json:"queue_len"`
	Workers  int `json:"workers"`
	// UptimeS is seconds since the service was constructed.
	UptimeS float64 `json:"uptime_s"`
}

// Service is a reusable, concurrency-safe solving service.
type Service struct {
	opts    Options
	cache   *lruCache
	disk    *diskCache    // durable tier under the LRU; nil without CacheDir
	queue   chan struct{} // admission slots: solves in flight
	workers chan struct{} // run slots: solves executing
	// solverWorkers is the per-solve internal worker budget for parallel
	// solvers: GOMAXPROCS split across the service's concurrent solves,
	// at least 1, so a loaded server stays near one busy goroutine per
	// core instead of one pool per request.
	solverWorkers int

	flightMu sync.Mutex
	flights  map[string]*flight

	requests       atomic.Uint64
	coalesced      atomic.Uint64
	solves         atomic.Uint64
	solveErrors    atomic.Uint64
	truncated      atomic.Uint64
	overloaded     atomic.Uint64
	verifyFailures atomic.Uint64
	inFlight       atomic.Int64

	// Session counters (see internal/service/sessions.go): the dynamic-
	// session layer reports lifecycle and per-event outcomes here so the
	// semimatch_session_* metric families live in the same registry.
	sessionsOpen      atomic.Int64
	sessionsTotal     atomic.Uint64
	sessionsEvicted   atomic.Uint64
	sessionEvents     atomic.Uint64
	sessionAdopted    atomic.Uint64
	sessionOverloaded atomic.Uint64

	// Peer-tier counters (see the Stats fields of the same names).
	peerHits           atomic.Uint64
	peerMisses         atomic.Uint64
	peerErrors         atomic.Uint64
	peerVerifyFailures atomic.Uint64
	peerServed         atomic.Uint64

	// Observability (internal/telemetry): the metrics registry and the
	// queue-wait histogram it owns, the node counter behind
	// semimatch_search_nodes_total, the live-solves table behind
	// GET /debug/solves, the solve ledger, and the request-trace sink.
	start        time.Time
	metrics      *telemetry.Registry
	queueWait    *telemetry.Histogram
	searchNodes  atomic.Uint64
	ledgerErrors atomic.Uint64
	ledger       *telemetry.Ledger
	traceW       io.Writer
	traceMu      sync.Mutex
	liveMu       sync.Mutex
	live         map[string]*liveEntry

	// solveFn is the dispatch stage, replaceable by tests.
	solveFn func(ctx context.Context, req *request) (*Result, error)
}

// flight is one in-progress solve that duplicate requests wait on.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// New returns a Service with the given options.
func New(opts Options) *Service {
	solverWorkers := runtime.GOMAXPROCS(0) / opts.workers()
	if solverWorkers < 1 {
		solverWorkers = 1
	}
	s := &Service{
		opts:          opts,
		cache:         newLRUCache(opts.cacheEntries(), opts.cacheShards()),
		queue:         make(chan struct{}, opts.queueDepth()),
		workers:       make(chan struct{}, opts.workers()),
		solverWorkers: solverWorkers,
		flights:       make(map[string]*flight),
		start:         time.Now(),
		traceW:        opts.TraceWriter,
		live:          make(map[string]*liveEntry),
	}
	if opts.CacheDir != "" {
		s.disk = newDiskCache(opts.CacheDir)
	}
	if opts.LedgerPath != "" {
		l, err := telemetry.OpenLedger(opts.LedgerPath)
		if err != nil {
			s.ledgerErrors.Add(1)
		} else {
			s.ledger = l
		}
	}
	s.newMetrics()
	s.solveFn = s.dispatch
	return s
}

// request is a normalized, canonicalized solve request.
type request struct {
	kind  string
	class registry.Class
	g     *bipartite.Graph       // canonical form (bipartite requests)
	h     *hypergraph.Hypergraph // canonical form (hypergraph requests)
	inv   []int32                // canonical edge id → requester edge id
	alg   string                 // canonical solver name or autoAlg: the key and result label
	fp    string                 // canonical fingerprint
	trace *telemetry.Span        // request span; nil without a TraceWriter
}

// autoAlg is the algorithm label of auto-policy requests. Auto answers key
// the cache on their own: an auto answer can differ from a named solve of
// the solver it reports as its source (the exact stage may prove that
// solver's schedule optimal), so the two must not share an entry.
const autoAlg = "auto"

// algorithm is the registry name dispatch runs; "" selects the auto policy.
func (req *request) algorithm() string {
	if req.alg == autoAlg {
		return ""
	}
	return req.alg
}

// problem wraps the canonical instance as a solve.Problem for dispatch.
func (req *request) problem() solve.Problem {
	if req.g != nil {
		return solve.Bipartite(req.g)
	}
	return solve.Hyper(req.h)
}

// instance returns the canonical instance for certificate verification.
func (req *request) instance() any {
	if req.g != nil {
		return req.g
	}
	return req.h
}

// Solve answers one request. instance must be a *semimatch
// hypergraph.Hypergraph or bipartite.Graph; algorithm is any name or
// alias the solver registry resolves for the instance's class, or ""
// for the auto policy. The request context's deadline bounds the solve:
// when it expires, exact stages degrade to their incumbent (Result.
// Truncated) rather than failing, as long as any schedule was found.
func (s *Service) Solve(ctx context.Context, instance any, algorithm string) (*Result, error) {
	s.requests.Add(1)
	var rs *telemetry.Span
	if s.traceW != nil {
		rs = telemetry.StartSpan("request")
	}
	canonStart := time.Now()
	req, err := s.newRequest(instance, algorithm)
	if err != nil {
		s.emitTrace(rs, "bad-request")
		return nil, err
	}
	rs.AddChild("canonicalize", canonStart, time.Since(canonStart))
	rs.SetAttr("fingerprint", req.fp)
	rs.SetAttr("algorithm", req.alg)
	req.trace = rs
	// The span's outcome attribute names how this request was answered;
	// the deferred emit covers every return path below.
	outcome := "error"
	defer func() { s.emitTrace(rs, outcome) }()

	ictx := ctx
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && s.opts.DefaultDeadline > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ctx, s.opts.DefaultDeadline)
		defer cancel()
	}
	key := req.fp + "|" + req.alg + "|" + budgetClass(ictx)

	var f *flight
	for {
		if res, ok := s.cache.get(key); ok {
			outcome = "cache-hit"
			return req.deliver(res, "memory"), nil
		}

		// Single flight: the first request for a key becomes the leader
		// and solves; duplicates arriving before it finishes wait for its
		// result without consuming queue slots.
		s.flightMu.Lock()
		leader, ok := s.flights[key]
		if !ok {
			f = &flight{done: make(chan struct{})}
			s.flights[key] = f
			s.flightMu.Unlock()
			break
		}
		s.flightMu.Unlock()
		s.coalesced.Add(1)
		select {
		case <-leader.done:
			if leader.err == nil {
				outcome = "coalesced"
				return req.deliver(leader.res, resultTier(leader.res)), nil
			}
			// The leader's failure may be its own: a leader whose request
			// context died mid-solve fails with a context error that says
			// nothing about this request. While our context is alive,
			// loop and try again (hitting the cache, a newer flight, or
			// becoming the leader ourselves); real solve errors are
			// shared as-is.
			if ictx.Err() == nil &&
				(errors.Is(leader.err, context.Canceled) || errors.Is(leader.err, context.DeadlineExceeded)) {
				continue
			}
			return nil, leader.err
		case <-ictx.Done():
			return nil, fmt.Errorf("service: abandoned waiting for in-flight duplicate solve: %w", ictx.Err())
		}
	}

	// Teardown is deferred so that even a panic unwinding through the
	// leader cannot leave a stale flight behind (followers would block on
	// it forever and the key could never be solved again).
	defer func() {
		if f.res == nil && f.err == nil {
			f.err = errors.New("service: solve aborted")
		}
		if f.err == nil && !f.res.Truncated && !f.res.noStore {
			// A truncated incumbent is only the best schedule this
			// deadline allowed; caching it would freeze a degraded answer
			// for future requests, so only complete results whose
			// certificate survived verification are stored. The store
			// happens before the flight is removed, so no request can slip
			// between flight teardown and cache visibility and re-solve.
			cs := req.trace.StartChild("cache-admission")
			s.cache.put(key, f.res)
			if s.disk != nil && !f.res.fromDisk {
				s.disk.put(key, f.res)
				cs.SetAttr("disk", true)
			}
			cs.End()
		}
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()
	f.res, f.err = s.leaderSolve(ictx, req, key)
	if f.err != nil {
		return nil, f.err
	}
	switch {
	case f.res.fromDisk:
		outcome = "disk-hit"
	case f.res.fromPeer:
		outcome = "peer-hit"
	default:
		outcome = "solved"
	}
	return req.deliver(f.res, resultTier(f.res)), nil
}

// resultTier is the cache-tier label of a leader's own result: "disk"
// when the durable tier answered, "peer" when the owning replica's entry
// was adopted, "none" for a fresh solve.
func resultTier(res *Result) string {
	switch {
	case res.fromDisk:
		return "disk"
	case res.fromPeer:
		return "peer"
	default:
		return "none"
	}
}

// leaderSolve is the single-flight leader's path: consult the durable
// tier first (one disk read serves every coalesced duplicate), then the
// owning replica's cache (one peer fetch per coalesced group), then fall
// back to an admitted fresh solve — verifying the result's certificate
// whichever way it was obtained.
func (s *Service) leaderSolve(ctx context.Context, req *request, key string) (*Result, error) {
	if s.disk != nil {
		if res, ok := s.disk.get(key, func(e *PeerEntry) (*Result, error) { return s.admitEntry(req, key, e) }); ok {
			res.fromDisk = true
			return res, nil
		}
	}
	if res, ok := s.peerFetch(ctx, req, key); ok {
		return res, nil
	}
	res, err := s.admitAndSolve(ctx, req)
	if err != nil {
		return nil, err
	}
	vs := req.trace.StartChild("verify")
	s.verifyFresh(req, res)
	vs.SetAttr("trust", res.Trust.String())
	vs.End()
	return res, nil
}

// verifyFresh checks a fresh solve's certificate against the canonical
// instance before the result can reach any cache tier. A result that
// fails — a solver lying about feasibility, makespan or optimality —
// is degraded in place (see certify), barred from the caches, and
// counted in Stats.VerifyFailures.
func (s *Service) verifyFresh(req *request, res *Result) {
	if req.certify(res) != nil {
		s.verifyFailures.Add(1)
		res.noStore = true
	}
}

// certify sets res's Trust, Optimal and LowerBound from its certificate,
// verified against req's canonical instance. It is the one derivation
// for every tier — fresh solves and entries read from disk or a peer —
// so a key reads the same whichever tier answers it: Optimal exactly
// when verification reaches TierAttested, LowerBound the certificate's
// (the makespan once the gap is closed). A certificate that fails
// leaves res heuristic with the re-derived cheap bound, and certify
// returns the verification error.
func (req *request) certify(res *Result) error {
	tier, err := cert.Verify(req.instance(), res.Certificate)
	res.Trust, res.Optimal = tier, tier >= cert.TierAttested
	switch {
	case err != nil:
		// Bounds fails only on an unsupported instance; req's is validated.
		avg, maxElem, _ := cert.Bounds(req.instance())
		res.LowerBound = max(avg, maxElem)
	case res.Optimal:
		res.LowerBound = res.Certificate.Makespan
	default:
		res.LowerBound = res.Certificate.LowerBound
	}
	return err
}

// Stats returns a counters snapshot.
func (s *Service) Stats() Stats {
	hits, misses, evicted := s.cache.counters()
	st := Stats{
		Requests:       s.requests.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evicted,
		CacheEntries:   s.cache.len(),
		Coalesced:      s.coalesced.Load(),
		Solves:         s.solves.Load(),
		SolveErrors:    s.solveErrors.Load(),
		Truncated:      s.truncated.Load(),
		Overloaded:     s.overloaded.Load(),
		VerifyFailures: s.verifyFailures.Load(),

		PeerHits:           s.peerHits.Load(),
		PeerMisses:         s.peerMisses.Load(),
		PeerErrors:         s.peerErrors.Load(),
		PeerVerifyFailures: s.peerVerifyFailures.Load(),
		PeerServed:         s.peerServed.Load(),

		InFlight:   s.inFlight.Load(),
		QueueDepth: s.opts.queueDepth(),
		QueueLen:   len(s.queue),
		Workers:    s.opts.workers(),
		UptimeS:    time.Since(s.start).Seconds(),
	}
	if s.disk != nil {
		st.DiskHits, st.DiskMisses, st.DiskWrites, st.DiskWriteErrors, st.DiskReaped = s.disk.counters()
	}
	return st
}

// newRequest validates, canonicalizes and fingerprints one request.
func (s *Service) newRequest(instance any, algorithm string) (*request, error) {
	req := &request{}
	switch v := instance.(type) {
	case *hypergraph.Hypergraph:
		if v == nil {
			return nil, fmt.Errorf("%w: nil hypergraph", ErrBadInstance)
		}
		canon, perm, err := encode.CanonicalHypergraph(v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
		}
		fp := encode.FingerprintCanonicalHypergraph(canon)
		inv := make([]int32, len(perm))
		for orig, c := range perm {
			inv[c] = int32(orig)
		}
		req.kind, req.class = "hypergraph", registry.MultiProc
		req.h, req.inv, req.fp = canon, inv, fp
	case *bipartite.Graph:
		if v == nil {
			return nil, fmt.Errorf("%w: nil graph", ErrBadInstance)
		}
		canon, err := encode.CanonicalBipartite(v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
		}
		fp := encode.FingerprintCanonicalBipartite(canon)
		req.kind, req.class = "bipartite", registry.SingleProc
		req.g, req.fp = canon, fp
	default:
		return nil, fmt.Errorf("%w: unsupported instance type %T", ErrBadInstance, instance)
	}
	if err := req.problem().Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}

	req.alg = autoAlg
	if algorithm != "" {
		// Resolving aliases to the canonical name here means every
		// spelling of one solver shares its cache entries.
		sol, err := registry.LookupClass(req.class, algorithm)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownAlgorithm, err)
		}
		req.alg = sol.Name
	}
	return req, nil
}

// deliver adapts a (possibly shared, canonical-numbered) result to one
// requester: hypergraph assignments are translated to the requester's own
// hyperedge numbering, and the cache tier ("memory", "disk", "peer" or
// "none" for a fresh solve) is stamped.
func (req *request) deliver(res *Result, tier string) *Result {
	out := *res
	out.Cached = tier != "" && tier != "none"
	out.Tier = tier
	if out.Cached {
		out.Elapsed = 0 // the documented "≈0 for hits": no solve ran
	}
	if req.inv != nil && out.Assignment != nil {
		a := make([]int32, len(out.Assignment))
		for t, c := range out.Assignment {
			a[t] = req.inv[c]
		}
		out.Assignment = a
		if out.Certificate != nil {
			// The certificate travels in the requester's numbering too, so
			// cert.Verify accepts it against the requester's own instance
			// (the fingerprint is isomorphism-invariant; the schedule is
			// the same one, renamed).
			c := *out.Certificate
			c.Assignment = a
			out.Certificate = &c
		}
	}
	return &out
}

// admitAndSolve applies admission control around the dispatch stage.
func (s *Service) admitAndSolve(ctx context.Context, req *request) (*Result, error) {
	select {
	case s.queue <- struct{}{}:
	default:
		s.overloaded.Add(1)
		return nil, ErrOverloaded
	}
	defer func() { <-s.queue }()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	waitStart := time.Now()
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("service: abandoned in queue: %w", ctx.Err())
	}
	defer func() { <-s.workers }()
	wait := time.Since(waitStart)
	s.queueWait.Observe(wait.Seconds())
	req.trace.AddChild("queue-wait", waitStart, wait)

	s.solves.Add(1)
	res, err := func() (res *Result, err error) {
		// A panicking solver must not take down the service or, worse,
		// strand the flight: it becomes this request's error.
		defer func() {
			if p := recover(); p != nil {
				res, err = nil, fmt.Errorf("service: panic solving instance: %v", p)
			}
		}()
		return s.solveFn(ctx, req)
	}()
	if err != nil {
		s.solveErrors.Add(1)
		return nil, err
	}
	if res.Truncated {
		s.truncated.Add(1)
	}
	return res, nil
}

// dispatch runs one solve on the canonical instance through the unified
// solve API: a named solver, or Run's auto policy (heuristic race, exact
// attempt when small enough, best-so-far fallback when the deadline
// expires). Each solve gets its share of the cores (solverWorkers), and
// attaches this request's trace span and live-progress feed.
func (s *Service) dispatch(ctx context.Context, req *request) (*Result, error) {
	start := time.Now()
	problem := req.problem()
	liveKey, hook := s.trackLive(req)
	defer s.untrackLive(liveKey)
	rep, err := solve.RunOptions(ctx, problem, solve.Options{
		Algorithm: req.algorithm(),
		Workers:   s.solverWorkers,
		Refine:    s.opts.Refine,
		Trace:     req.trace != nil,
		Progress:  hook,
	})
	if rep == nil {
		return nil, fmt.Errorf("service: %s: %w", req.alg, err)
	}
	req.trace.Adopt(rep.Trace)
	s.recordSolve(req, problem, rep)
	res := req.result(rep, err)
	res.Elapsed = time.Since(start)
	return res, nil
}

// result is a fresh solve's Report as this request's Result. Its
// Optimal, LowerBound and Trust are left to certify, the derivation
// every tier shares; err is the error RunOptions returned alongside rep.
func (req *request) result(rep *solve.Report, err error) *Result {
	res := &Result{
		Kind:        req.kind,
		Fingerprint: req.fp,
		Algorithm:   req.alg,
		Makespan:    rep.Makespan,
		Assignment:  rep.Assignment,
		Loads:       rep.Loads,
		Certificate: rep.Certificate,
		// An error alongside a Report is the auto policy's exact stage
		// failing unexpectedly: the heuristic schedule stands, but it is
		// not the policy's full answer, so it is never cached.
		Truncated: err != nil || rep.Status == solve.StatusTruncated,
	}
	if req.alg == autoAlg {
		res.Algorithm = autoAlg + ":" + sourceLabel(rep)
	}
	return res
}

// sourceLabel renders a Report's provenance: the producing solver's
// canonical name, suffixed "-incumbent" when the schedule is an exact
// search's unproven incumbent (a deadline or node budget stopped it).
func sourceLabel(rep *solve.Report) string {
	if rep.Status != solve.StatusOptimal {
		if s, err := registry.LookupClass(rep.Class, rep.Solver); err == nil && s.Kind == registry.Exact {
			return rep.Solver + "-incumbent"
		}
	}
	return rep.Solver
}

// budgetClass buckets a context's remaining budget into a coarse class so
// cache keys distinguish "answers computed under a tight deadline" from
// unconstrained ones without fragmenting the cache per-millisecond.
func budgetClass(ctx context.Context) string {
	d, ok := ctx.Deadline()
	if !ok {
		return "inf"
	}
	switch rem := time.Until(d); {
	case rem <= 100*time.Millisecond:
		return "le100ms"
	case rem <= 500*time.Millisecond:
		return "le500ms"
	case rem <= 2*time.Second:
		return "le2s"
	case rem <= 10*time.Second:
		return "le10s"
	default:
		return "gt10s"
	}
}
