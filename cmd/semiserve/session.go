package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semimatch/internal/service"
	"semimatch/internal/session"
)

// Dynamic-session endpoints: POST /session opens a long-lived scheduling
// session, POST /session/{id}/events feeds it arrive/depart/reweigh
// events (one JSON event per line), and GET /session/{id}/events streams
// the re-solves' incumbent trajectories and per-event reports over SSE.
// Sessions are in-memory with a cap (-sessions) and idle eviction
// (-session-idle); their re-solves go through the service's admission
// control, so session traffic and /solve traffic share one capacity.

// defaultSessionBuf is the SSE subscriber buffer: pushes beyond it are
// dropped rather than stalling the session's event loop.
const defaultSessionBuf = 1024

// sessionManager owns the open sessions.
type sessionManager struct {
	svc   *service.Service
	cap   int
	idle  time.Duration
	trace bool

	mu       sync.Mutex
	sessions map[string]*liveSession
	sweeping bool
}

// liveSession is one open session plus its eviction bookkeeping.
type liveSession struct {
	id      string
	s       *session.Session
	multi   bool
	procs   int
	created time.Time
	// lastActive is unix nanos of the last event or subscription; streams
	// counts open SSE connections — a streamed session is never idle.
	lastActive atomic.Int64
	streams    atomic.Int32
}

func (ls *liveSession) touch() { ls.lastActive.Store(time.Now().UnixNano()) }

func newSessionManager(svc *service.Service, cap int, idle time.Duration, trace bool) *sessionManager {
	return &sessionManager{
		svc: svc, cap: cap, idle: idle, trace: trace,
		sessions: make(map[string]*liveSession),
	}
}

// scheduleSweep arms the idle-eviction timer; m.mu must be held. Only one
// timer is in flight, and none while no sessions exist.
func (m *sessionManager) scheduleSweep() {
	if m.sweeping || m.idle <= 0 || len(m.sessions) == 0 {
		return
	}
	m.sweeping = true
	interval := m.idle / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	time.AfterFunc(interval, m.sweep)
}

// sweep evicts sessions idle past the deadline (streaming ones excepted)
// and re-arms itself while sessions remain.
func (m *sessionManager) sweep() {
	m.mu.Lock()
	now := time.Now()
	var evicted []*liveSession
	for id, ls := range m.sessions {
		if ls.streams.Load() == 0 && now.Sub(time.Unix(0, ls.lastActive.Load())) >= m.idle {
			delete(m.sessions, id)
			evicted = append(evicted, ls)
		}
	}
	m.sweeping = false
	m.scheduleSweep()
	m.mu.Unlock()
	for _, ls := range evicted {
		ls.s.Close()
		m.svc.SessionClosed(true)
	}
}

func (m *sessionManager) get(id string) *liveSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.sessions[id]
	if ls != nil {
		ls.touch()
	}
	return ls
}

// sessionCreated is the POST /session response body.
type sessionCreated struct {
	ID    string `json:"id"`
	Procs int    `json:"procs"`
	Multi bool   `json:"multi"`
	// IdleTimeoutS is how long the session survives without events or an
	// open stream before eviction (0 = never evicted).
	IdleTimeoutS float64 `json:"idle_timeout_s"`
}

// handleSessionRoot serves POST /session (create) and GET /session
// (list open sessions).
func (s *server) handleSessionRoot(w http.ResponseWriter, r *http.Request) {
	m := s.sessions
	if m == nil {
		writeError(w, http.StatusNotFound, "sessions disabled (-sessions 0)")
		return
	}
	switch r.Method {
	case http.MethodGet:
		m.mu.Lock()
		list := make([]sessionCreated, 0, len(m.sessions))
		for id, ls := range m.sessions {
			list = append(list, sessionCreated{ID: id, Procs: ls.procs, Multi: ls.multi, IdleTimeoutS: m.idle.Seconds()})
		}
		m.mu.Unlock()
		writeJSON(w, http.StatusOK, struct {
			Sessions []sessionCreated `json:"sessions"`
		}{list})
	case http.MethodPost:
		s.handleSessionCreate(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleSessionCreate opens a session. The body is a session script
// header: {"procs":N,"multi":...,"lambda":...,"node_budget":...,
// "exact_task_limit":...,"compare_cold":...}.
func (s *server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	m := s.sessions
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeError(w, bodyErrorStatus(err), fmt.Sprintf("reading body: %v", err))
		return
	}
	var hdr session.ScriptHeader
	if err := json.Unmarshal(body, &hdr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad session config: %v", err))
		return
	}
	opts := hdr.Options()
	// One admission slot per re-solve: a session's solve runs alone, and
	// with one worker the engine's node accounting is deterministic, so
	// warm-vs-cold comparisons (compare_cold) measure pruning, not luck.
	opts.Workers = 1
	opts.Trace = m.trace
	opts.Acquire = m.svc.AcquireSolveSlot
	sess, err := session.New(opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ls := &liveSession{
		id: newRequestID(), s: sess,
		multi: opts.Multi, procs: opts.Procs, created: time.Now(),
	}
	ls.touch()
	m.mu.Lock()
	if m.cap > 0 && len(m.sessions) >= m.cap {
		m.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, fmt.Sprintf("session capacity (%d) reached", m.cap))
		return
	}
	m.sessions[ls.id] = ls
	m.scheduleSweep()
	m.mu.Unlock()
	m.svc.SessionOpened()
	writeJSON(w, http.StatusCreated, sessionCreated{
		ID: ls.id, Procs: opts.Procs, Multi: opts.Multi, IdleTimeoutS: m.idle.Seconds(),
	})
}

// handleSession routes /session/{id}[/events]: GET {id} snapshots, DELETE
// {id} closes, POST {id}/events applies events, GET {id}/events streams.
func (s *server) handleSession(w http.ResponseWriter, r *http.Request) {
	m := s.sessions
	if m == nil {
		writeError(w, http.StatusNotFound, "sessions disabled (-sessions 0)")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/session/")
	id, sub, _ := strings.Cut(rest, "/")
	ls := m.get(id)
	if ls == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, ls.s.Snapshot())
	case sub == "" && r.Method == http.MethodDelete:
		m.mu.Lock()
		_, open := m.sessions[id]
		delete(m.sessions, id)
		m.mu.Unlock()
		if open {
			ls.s.Close()
			m.svc.SessionClosed(false)
		}
		w.WriteHeader(http.StatusNoContent)
	case sub == "events" && r.Method == http.MethodPost:
		s.handleSessionEvents(w, r, ls)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleSessionStream(w, r, ls)
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
	}
}

// eventsResponse is the POST /session/{id}/events body: one report per
// applied event, plus the error that stopped a partially-applied batch.
type eventsResponse struct {
	Reports []*session.SessionReport `json:"reports"`
	Error   string                   `json:"error,omitempty"`
}

// handleSessionEvents applies a batch of events: one JSON event per line
// (a single event is a one-line batch). Events apply in order; the first
// failure stops the batch and reports the events already applied.
func (s *server) handleSessionEvents(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	m := s.sessions
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.maxBody))
	// The line buffer starts at the body's declared length (one event is
	// a few hundred bytes), at most the scanner's 4 KiB default, and grows
	// only as far as a line needs. The body holds at most -max-body
	// bytes; the one byte more lets a line that fills the whole body
	// still reach EOF.
	sc.Buffer(make([]byte, 0, eventBufSize(r.ContentLength)), int(s.maxBody)+1)
	var resp eventsResponse
	line := 0
	for sc.Scan() {
		if sc.Err() != nil {
			break // the read failed, so this line may be cut short
		}
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev session.Event
		if err := json.Unmarshal(b, &ev); err != nil {
			resp.Error = fmt.Sprintf("event line %d: %v", line, err)
			writeJSON(w, http.StatusBadRequest, resp)
			return
		}
		rep, err := ls.s.Apply(r.Context(), ev)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, session.ErrClosed) {
				status = http.StatusGone
			}
			resp.Error = fmt.Sprintf("event line %d: %v", line, err)
			writeJSON(w, status, resp)
			return
		}
		ls.touch()
		overloaded := rep.SolveStatus == "overloaded"
		m.svc.SessionEvent(rep.Adopted, overloaded)
		outcome := "patched"
		switch {
		case overloaded:
			outcome = "overloaded"
		case rep.Adopted:
			outcome = "adopted"
		}
		if rep.Report != nil {
			m.svc.RecordSessionSolve(ls.id, rep.Problem, rep.Report)
			m.svc.TraceSessionEvent(ls.id, rep.Op, rep.Seq, outcome, rep.Report.Trace, rep.ColdTrace)
		}
		resp.Reports = append(resp.Reports, rep)
	}
	if err := sc.Err(); err != nil {
		resp.Error = fmt.Sprintf("reading events: %v", err)
		writeJSON(w, bodyErrorStatus(err), resp)
		return
	}
	if len(resp.Reports) == 0 {
		writeError(w, http.StatusBadRequest, "no events in body")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// eventBufSize is the start size of an events body's line buffer: the
// declared body length plus the byte that lets the scanner see EOF
// without growing, capped at bufio's default start size; a body of
// unknown length starts at the cap.
func eventBufSize(contentLength int64) int {
	const maxStart = 4096
	if contentLength < 0 || contentLength >= maxStart {
		return maxStart
	}
	return int(contentLength) + 1
}

// incumbentWire is the SSE form of a solve.Incumbent.
type incumbentWire struct {
	Seq        int64   `json:"seq"`
	Makespan   int64   `json:"makespan"`
	Assignment []int32 `json:"assignment"`
	Solver     string  `json:"solver,omitempty"`
	ElapsedS   float64 `json:"elapsed_s"`
	Final      bool    `json:"final"`
}

// handleSessionStream serves the SSE event stream: an initial "state"
// event with the current schedule, then "incumbent" events as re-solves
// improve and one "report" event per applied session event, until the
// client disconnects or the session closes (a final "closed" event).
func (s *server) handleSessionStream(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	rc := http.NewResponseController(w)
	// SSE outlives the server's write timeout by design.
	rc.SetWriteDeadline(time.Time{})
	ch, cancel := ls.s.Subscribe(defaultSessionBuf)
	defer cancel()
	ls.streams.Add(1)
	defer func() { ls.streams.Add(-1); ls.touch() }()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, rc, "state", ls.s.Snapshot())

	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-ch:
			if !ok { // session closed or evicted
				writeSSE(w, rc, "closed", struct{}{})
				return
			}
			switch p.Kind {
			case "incumbent":
				inc := p.Incumbent
				if err := writeSSE(w, rc, "incumbent", incumbentWire{
					Seq: p.Seq, Makespan: inc.Makespan, Assignment: inc.Assignment,
					Solver: inc.Solver, ElapsedS: inc.Elapsed.Seconds(), Final: inc.Final,
				}); err != nil {
					return
				}
			case "report":
				if err := writeSSE(w, rc, "report", p.Report); err != nil {
					return
				}
			}
		}
	}
}

// writeSSE emits one server-sent event with a JSON data payload.
func writeSSE(w io.Writer, rc *http.ResponseController, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	return rc.Flush()
}
