package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

// Session accounting. The dynamic-session layer (cmd/semiserve) owns the
// sessions themselves; the service only hosts their shared admission
// control, the ledger, the trace sink and the metric counters, so one
// /metrics scrape and one ledger file cover both request traffic and
// session traffic.

// DefaultDeadline is Options.DefaultDeadline, the budget of a solve that
// brings none of its own (0 = none). A session re-solve runs under it, so
// it holds its solve slot no longer than such a /solve request.
func (s *Service) DefaultDeadline() time.Duration { return s.opts.DefaultDeadline }

// AcquireSolveSlot claims one admission slot and one run slot for a solve
// the service does not dispatch itself — a dynamic session's per-event
// re-solve. It fails fast with ErrOverloaded when the queue is full and
// waits for a run slot otherwise, exactly like an admitted /solve
// request, so session re-solves share the same capacity instead of
// sidestepping it. The returned release frees both slots; calling it more
// than once is safe.
func (s *Service) AcquireSolveSlot(ctx context.Context) (func(), error) {
	select {
	case s.queue <- struct{}{}:
	default:
		s.overloaded.Add(1)
		return nil, ErrOverloaded
	}
	s.inFlight.Add(1)
	waitStart := time.Now()
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		s.inFlight.Add(-1)
		<-s.queue
		return nil, fmt.Errorf("service: abandoned in queue: %w", ctx.Err())
	}
	s.queueWait.Observe(time.Since(waitStart).Seconds())
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.workers
			s.inFlight.Add(-1)
			<-s.queue
		})
	}, nil
}

// SessionOpened accounts one session creation.
func (s *Service) SessionOpened() {
	s.sessionsTotal.Add(1)
	s.sessionsOpen.Add(1)
}

// SessionClosed accounts one session teardown; evicted distinguishes
// idle eviction from an explicit close.
func (s *Service) SessionClosed(evicted bool) {
	s.sessionsOpen.Add(-1)
	if evicted {
		s.sessionsEvicted.Add(1)
	}
}

// SessionEvent accounts one applied session event: whether the re-solved
// schedule was adopted over the online patch, and whether admission
// control skipped the re-solve.
func (s *Service) SessionEvent(adopted, overloaded bool) {
	s.sessionEvents.Add(1)
	if adopted {
		s.sessionAdopted.Add(1)
	}
	if overloaded {
		s.sessionOverloaded.Add(1)
	}
}

// RecordSessionSolve accounts one session re-solve's Report: its nodes
// join semimatch_search_nodes_total, and the solve ledger (when attached)
// gains a source:"session" record keyed by the session id instead of a
// content fingerprint — session instances mutate every event, so a
// content hash would never repeat anyway.
func (s *Service) RecordSessionSolve(sessionID string, p solve.Problem, rep *solve.Report) {
	if rep == nil {
		return
	}
	s.searchNodes.Add(uint64(rep.Stats.Nodes))
	if s.ledger == nil {
		return
	}
	rec := solve.NewLedgerRecord("session", sessionID, p, rep)
	if err := s.ledger.Append(rec); err != nil {
		s.ledgerErrors.Add(1)
	}
}

// TraceSessionEvent emits one "session-event" span tree — the event's
// spans adopted underneath, in order: its re-solve trace and, when the
// session compares cold, its "cold-search" span — to the configured
// TraceWriter; no-op without one. nil spans are skipped. The outcome
// attribute records how the event was answered ("adopted", "patched",
// "overloaded", ...).
func (s *Service) TraceSessionEvent(sessionID, op string, seq int64, outcome string, spans ...*telemetry.Span) {
	if s.traceW == nil {
		return
	}
	rs := telemetry.StartSpan("session-event")
	rs.SetAttr("session", sessionID)
	rs.SetAttr("op", op)
	rs.SetAttr("seq", seq)
	for _, sp := range spans {
		rs.Adopt(sp)
	}
	s.emitTrace(rs, outcome)
}
