package service

import (
	"sort"
	"time"

	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

// newMetrics builds the service's Prometheus registry. Every counter is
// function-backed over the atomics the service already maintains, so the
// request path pays nothing for being scrapable; only the queue-wait
// histogram adds an observation (two atomic adds) per admitted solve.
// Families are registered at construction so a scrape of an idle server
// still shows the full schema at zero.
func (s *Service) newMetrics() {
	r := telemetry.NewRegistry()
	r.CounterFunc("semimatch_requests_total",
		"Solve requests received (all outcomes).", s.requests.Load)
	r.CounterFunc("semimatch_cache_hits_total",
		"Requests answered from the in-memory result cache.", func() uint64 {
			h, _, _ := s.cache.counters()
			return h
		})
	r.CounterFunc("semimatch_cache_misses_total",
		"Cache lookups that found nothing.", func() uint64 {
			_, m, _ := s.cache.counters()
			return m
		})
	r.CounterFunc("semimatch_cache_evictions_total",
		"Results evicted from the in-memory cache by LRU pressure.", func() uint64 {
			_, _, e := s.cache.counters()
			return e
		})
	r.GaugeFunc("semimatch_cache_entries",
		"Results currently held in the in-memory cache.", func() float64 {
			return float64(s.cache.len())
		})
	r.CounterFunc("semimatch_coalesced_total",
		"Requests answered by another request's in-flight solve.", s.coalesced.Load)
	r.CounterFunc("semimatch_solves_total",
		"Fresh solves dispatched to the solver layer.", s.solves.Load)
	r.CounterFunc("semimatch_solve_errors_total",
		"Fresh solves that failed (including panics).", s.solveErrors.Load)
	r.CounterFunc("semimatch_truncated_total",
		"Solves truncated by a deadline or cancellation.", s.truncated.Load)
	r.CounterFunc("semimatch_overloaded_total",
		"Requests shed by admission control (solve queue full).", s.overloaded.Load)
	r.CounterFunc("semimatch_verify_failures_total",
		"Results whose certificate failed independent verification.", s.verifyFailures.Load)
	r.CounterFunc("semimatch_disk_hits_total",
		"Durable-tier lookups served after verification.", func() uint64 {
			h, _, _, _, _ := s.diskCounters()
			return h
		})
	r.CounterFunc("semimatch_disk_misses_total",
		"Durable-tier lookups that found nothing usable.", func() uint64 {
			_, m, _, _, _ := s.diskCounters()
			return m
		})
	r.CounterFunc("semimatch_disk_writes_total",
		"Results persisted to the durable tier.", func() uint64 {
			_, _, w, _, _ := s.diskCounters()
			return w
		})
	r.CounterFunc("semimatch_disk_write_errors_total",
		"Failed durable-tier persists.", func() uint64 {
			_, _, _, we, _ := s.diskCounters()
			return we
		})
	r.CounterFunc("semimatch_disk_reaped_total",
		"Corrupt, stale or unverifiable durable-tier files deleted.", func() uint64 {
			_, _, _, _, rp := s.diskCounters()
			return rp
		})
	r.CounterFunc("semimatch_peer_hits_total",
		"Cache entries adopted from a peer replica after local re-verification.", s.peerHits.Load)
	r.CounterFunc("semimatch_peer_misses_total",
		"Peer-cache fetches the owning replica answered with a miss.", s.peerMisses.Load)
	r.CounterFunc("semimatch_peer_errors_total",
		"Peer-cache fetches that failed (transport, status or decode).", s.peerErrors.Load)
	r.CounterFunc("semimatch_peer_verify_failures_total",
		"Peer entries rejected before admission (shape or certificate).", s.peerVerifyFailures.Load)
	r.CounterFunc("semimatch_peer_served_total",
		"Cache entries this replica served to peers over /internal/cache.", s.peerServed.Load)
	r.GaugeFunc("semimatch_in_flight",
		"Solves in flight right now (queued or running).", func() float64 {
			return float64(s.inFlight.Load())
		})
	r.CounterFunc("semimatch_search_nodes_total",
		"Branch-and-bound nodes expanded by fresh solves.", s.searchNodes.Load)
	r.GaugeFunc("semimatch_search_nodes_per_second",
		"Current aggregate node rate across live searches.", func() float64 {
			var rate float64
			for _, ls := range s.LiveSolves() {
				rate += ls.Progress.NodesPerSec
			}
			return rate
		})
	r.GaugeFunc("semimatch_sessions_open",
		"Dynamic sessions open right now.", func() float64 {
			return float64(s.sessionsOpen.Load())
		})
	r.CounterFunc("semimatch_sessions_total",
		"Dynamic sessions ever opened.", s.sessionsTotal.Load)
	r.CounterFunc("semimatch_sessions_evicted_total",
		"Dynamic sessions closed by idle eviction.", s.sessionsEvicted.Load)
	r.CounterFunc("semimatch_session_events_total",
		"Session events applied (arrive, depart, reweigh).", s.sessionEvents.Load)
	r.CounterFunc("semimatch_session_adopted_total",
		"Session events whose re-solved schedule beat the online patch.", s.sessionAdopted.Load)
	r.CounterFunc("semimatch_session_overloaded_total",
		"Session re-solves skipped by admission control (patch kept).", s.sessionOverloaded.Load)
	r.CounterFunc("semimatch_ledger_errors_total",
		"Solve-ledger appends that failed.", s.ledgerErrors.Load)
	r.GaugeFunc("semimatch_uptime_seconds",
		"Seconds since the service was constructed.", func() float64 {
			return time.Since(s.start).Seconds()
		})
	s.queueWait = r.Histogram("semimatch_queue_wait_seconds",
		"Time admitted solves spent waiting for a run slot.", nil)
	s.metrics = r
}

// Metrics returns the service's metrics registry, for the HTTP layer to
// expose on GET /metrics (and to register its own request-latency
// families into). The registry is fixed at construction; scraping it at
// any time is safe and lock-free on the observation side.
func (s *Service) Metrics() *telemetry.Registry { return s.metrics }

// diskCounters is the durable tier's counters, zero without a CacheDir.
func (s *Service) diskCounters() (hits, misses, writes, writeErrs, reaped uint64) {
	if s.disk == nil {
		return 0, 0, 0, 0, 0
	}
	return s.disk.counters()
}

// LiveSolve is one in-flight solve as seen by GET /debug/solves: which
// instance and algorithm, how long it has been running, and the latest
// search-progress snapshot its engine delivered (zero until the first
// search checkpoint).
type LiveSolve struct {
	Fingerprint string `json:"fingerprint"`
	Algorithm   string `json:"algorithm"`
	// RunningS is how long this solve has been executing.
	RunningS float64 `json:"running_s"`
	// Progress is the engine's latest snapshot; Nodes stays zero for
	// solves that never enter a branch-and-bound search (pure heuristics).
	Progress telemetry.SearchProgress `json:"progress"`
}

// liveEntry is the mutable behind-the-lock form of a LiveSolve.
type liveEntry struct {
	fp, alg  string
	started  time.Time
	progress telemetry.SearchProgress
}

// trackLive registers a starting solve in the live table and returns the
// progress hook that keeps its snapshot fresh. untrackLive must be called
// with the same key when the solve finishes.
func (s *Service) trackLive(req *request) (key string, hook telemetry.ProgressFunc) {
	key = req.fp + "|" + req.alg
	s.liveMu.Lock()
	s.live[key] = &liveEntry{fp: req.fp, alg: req.alg, started: time.Now()}
	s.liveMu.Unlock()
	return key, func(p telemetry.SearchProgress) {
		s.liveMu.Lock()
		if e := s.live[key]; e != nil {
			e.progress = p
		}
		s.liveMu.Unlock()
	}
}

// untrackLive removes a finished solve from the live table.
func (s *Service) untrackLive(key string) {
	s.liveMu.Lock()
	delete(s.live, key)
	s.liveMu.Unlock()
}

// LiveSolves snapshots the solves executing right now, oldest first —
// the data behind GET /debug/solves.
func (s *Service) LiveSolves() []LiveSolve {
	now := time.Now()
	s.liveMu.Lock()
	out := make([]LiveSolve, 0, len(s.live))
	for _, e := range s.live {
		out = append(out, LiveSolve{
			Fingerprint: e.fp,
			Algorithm:   e.alg,
			RunningS:    now.Sub(e.started).Seconds(),
			Progress:    e.progress,
		})
	}
	s.liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].RunningS != out[j].RunningS {
			return out[i].RunningS > out[j].RunningS
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// recordSolve accounts one fresh solve's Report: the node counter behind
// semimatch_search_nodes_total, and the solve-ledger line when a ledger
// is attached. Called on the dispatch path only — cache and disk hits
// re-serve work the ledger already has.
func (s *Service) recordSolve(req *request, p solve.Problem, rep *solve.Report) {
	if rep == nil {
		return
	}
	s.searchNodes.Add(uint64(rep.Stats.Nodes))
	if s.ledger == nil {
		return
	}
	rec := solve.NewLedgerRecord("service", req.fp, p, rep)
	rec.Algorithm = req.alg // the requested name; rep.Solver is the winner
	if rep.Solver != "" && rep.Solver != req.alg {
		rec.Algorithm = req.alg + ":" + rep.Solver
	}
	if err := s.ledger.Append(rec); err != nil {
		s.ledgerErrors.Add(1)
	}
}

// emitTrace finishes one request span and writes its NDJSON tree to the
// configured TraceWriter. Writes are serialized so concurrent requests
// cannot interleave lines.
func (s *Service) emitTrace(rs *telemetry.Span, outcome string) {
	if rs == nil || s.traceW == nil {
		return
	}
	rs.SetAttr("outcome", outcome)
	rs.End()
	s.traceMu.Lock()
	rs.WriteNDJSON(s.traceW)
	s.traceMu.Unlock()
}

// Close releases the service's durable attachments (today: the solve
// ledger). The service itself holds no goroutines and needs no shutdown.
func (s *Service) Close() error {
	if s.ledger != nil {
		return s.ledger.Close()
	}
	return nil
}
