package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"semimatch/internal/hypergraph"
	"semimatch/internal/registry"
	"semimatch/internal/sched"
	"semimatch/internal/service"
	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

// defaultMaxBody bounds one /solve request body (overridable with
// -max-body). Worst-case buffered body memory is maxBody × maxInflight —
// 1 GiB at the defaults (16 MiB × 64) — so both knobs must be raised
// together deliberately, not by accident. 16 MiB of the text format is
// roughly half a million hyperedges; the paper's largest grids need a
// few times that, which is exactly what -max-body is for.
const defaultMaxBody = 16 << 20

// serverConfig carries the HTTP layer's knobs from main (or a test) into
// newServer.
type serverConfig struct {
	// maxDeadline caps the per-request ?deadline= override; 0 means no
	// cap.
	maxDeadline time.Duration
	// maxInflight caps concurrent /solve handlers, parsing included; 0
	// means unlimited.
	maxInflight int
	// maxBody caps one request body; 0 means defaultMaxBody.
	maxBody int64
	// logger receives one structured access-log line per request; nil
	// disables access logging.
	logger *slog.Logger
	// pprof mounts net/http/pprof under /debug/pprof/.
	pprof bool
	// sessions caps concurrently open dynamic sessions (-sessions); 0
	// disables the /session endpoints entirely.
	sessions int
	// sessionIdle evicts sessions with no events and no open stream for
	// this long (-session-idle); 0 means never.
	sessionIdle time.Duration
	// trace mirrors "a TraceWriter is configured": session re-solves then
	// carry span trees for the session-event traces.
	trace bool
}

// server is the HTTP front end over one Service.
type server struct {
	svc         *service.Service
	maxDeadline time.Duration
	maxBody     int64
	log         *slog.Logger
	// reqLatency is the semimatch_http_request_seconds histogram, living
	// in the service's registry so one /metrics scrape covers both layers.
	reqLatency *telemetry.Histogram
	// inflight caps concurrent /solve handlers. The service's own
	// admission control only bounds solves; this bound also covers the
	// per-request work done before a request reaches it — body
	// buffering, parsing, canonicalization, hashing — so a flood of
	// large instances is shed before it burns that cost. nil means
	// unlimited.
	inflight chan struct{}
	// sessions owns the dynamic-session endpoints; nil when disabled.
	sessions *sessionManager
}

// newServer wires the HTTP routes and the instrumentation middleware
// (request ids, the request-latency histogram, access logs). It registers
// the HTTP metric families into svc's registry, so each Service can front
// at most one server.
func newServer(svc *service.Service, cfg serverConfig) http.Handler {
	s := &server{
		svc: svc, maxDeadline: cfg.maxDeadline, maxBody: cfg.maxBody, log: cfg.logger,
	}
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBody
	}
	if cfg.maxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.maxInflight)
	}
	s.reqLatency = svc.Metrics().Histogram("semimatch_http_request_seconds",
		"HTTP request latency, handler entry to response end.", nil)
	if cfg.sessions > 0 {
		s.sessions = newSessionManager(svc, cfg.sessions, cfg.sessionIdle, cfg.trace)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/session", s.handleSessionRoot)
	mux.HandleFunc("/session/", s.handleSession)
	mux.HandleFunc("/internal/cache/", s.handlePeerCache)
	mux.HandleFunc("/algorithms", s.handleAlgorithms)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/solves", s.handleDebugSolves)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// reqInfo is per-request annotation the solve handler fills in for the
// access log: what was asked, what answered it.
type reqInfo struct {
	alg, fingerprint, tier, status string
}

type reqInfoKey struct{}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer for
// per-request deadline control and flushing (the SSE stream needs both).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// newRequestID returns a 16-hex-char random request id.
func newRequestID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// instrument wraps the route mux with the observability middleware: a
// request id issued to the client as X-Request-Id, one latency histogram
// observation, and one structured access-log line per request.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := newRequestID()
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		info := &reqInfo{}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		elapsed := time.Since(start)
		s.reqLatency.Observe(elapsed.Seconds())
		if s.log == nil {
			return
		}
		attrs := []slog.Attr{
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("elapsed", elapsed),
		}
		if info.alg != "" {
			attrs = append(attrs, slog.String("alg", info.alg))
		}
		if info.fingerprint != "" {
			fp := info.fingerprint
			if len(fp) > 12 {
				fp = fp[:12]
			}
			tier := info.tier
			if tier == "" {
				tier = "none"
			}
			attrs = append(attrs, slog.String("fp", fp), slog.String("cache", tier))
		}
		if info.status != "" {
			attrs = append(attrs, slog.String("solve_status", info.status))
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// solveResponse is the JSON body of a successful POST /solve; the schema
// is documented in doc.go.
type solveResponse struct {
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	Algorithm   string `json:"algorithm"`
	Makespan    int64  `json:"makespan"`
	// LowerBound is the verified certificate's lower bound on the
	// optimal makespan — the makespan itself once the gap is closed;
	// makespan − lower_bound is the optimality gap the client can see
	// without trusting the status field.
	LowerBound int64 `json:"lower_bound"`
	// Status is the unified solve API's optimality class:
	// "optimal", "heuristic" or "truncated".
	Status    string `json:"status"`
	Optimal   bool   `json:"optimal"`
	Truncated bool   `json:"truncated"`
	// Trust is the certificate trust tier the service established by
	// independent verification: "verified", "attested" or "heuristic".
	Trust string `json:"trust"`
	// Witness names the optimality argument of the result's certificate:
	// "average-load", "max-element", "packing", "matching", "exhaustive"
	// or "none".
	Witness string `json:"witness,omitempty"`
	Cached  bool   `json:"cached"`
	// CacheTier names the tier that answered: "memory", "disk", "peer"
	// (adopted from the owning replica after local re-verification), or
	// "none" for a fresh solve.
	CacheTier string  `json:"cache_tier,omitempty"`
	ElapsedS  float64 `json:"elapsed_s"`
	// Assignment maps task → processor (bipartite) or task → hyperedge id
	// in the posted instance's task-grouped numbering (hypergraph).
	Assignment []int32 `json:"assignment"`
	// Configs, present for JSON instances only, maps task → chosen
	// configuration index in the posted order.
	Configs []int32 `json:"configs,omitempty"`
	Loads   []int64 `json:"loads"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "too many requests in flight")
			return
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeError(w, bodyErrorStatus(err), fmt.Sprintf("reading body: %v", err))
		return
	}

	ctx := r.Context()
	if d := r.URL.Query().Get("deadline"); d != "" {
		dur, err := time.ParseDuration(d)
		if err != nil || dur <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad deadline %q (want a positive Go duration, e.g. 500ms)", d))
			return
		}
		if s.maxDeadline > 0 && dur > s.maxDeadline {
			dur = s.maxDeadline
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dur)
		defer cancel()
	}

	instance, fromJSON, err := sched.ParseInstance(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	if info == nil {
		info = &reqInfo{}
	}
	info.alg = r.URL.Query().Get("alg")
	res, err := s.svc.Solve(ctx, instance, info.alg)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, service.ErrOverloaded):
			w.Header().Set("Retry-After", "1")
			status = http.StatusTooManyRequests
		case errors.Is(err, service.ErrUnknownAlgorithm), errors.Is(err, service.ErrBadInstance):
			status = http.StatusBadRequest
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, err.Error())
		return
	}

	// The status follows the verified certificate, as Optimal does; a
	// schedule it does not prove is truncated when the solve was cut
	// short.
	status := solve.StatusHeuristic
	switch {
	case res.Optimal:
		status = solve.StatusOptimal
	case res.Truncated:
		status = solve.StatusTruncated
	}
	info.alg = res.Algorithm
	info.fingerprint = res.Fingerprint
	info.tier = res.Tier
	info.status = status.String()
	resp := solveResponse{
		Kind:        res.Kind,
		Fingerprint: res.Fingerprint,
		Algorithm:   res.Algorithm,
		Makespan:    res.Makespan,
		LowerBound:  res.LowerBound,
		Status:      status.String(),
		Optimal:     res.Optimal,
		Truncated:   res.Truncated,
		Trust:       res.Trust.String(),
		Cached:      res.Cached,
		CacheTier:   res.Tier,
		ElapsedS:    res.Elapsed.Seconds(),
		Assignment:  res.Assignment,
		Loads:       res.Loads,
	}
	if res.Certificate != nil {
		resp.Witness = res.Certificate.Witness.Kind.String()
	}
	if fromJSON {
		// For the named-task JSON form, translate hyperedge ids back to
		// per-task configuration indices (configuration j of task t is
		// hyperedge TaskEdges(t)[j]).
		if h, ok := instance.(*hypergraph.Hypergraph); ok {
			resp.Configs = make([]int32, len(res.Assignment))
			for t, e := range res.Assignment {
				resp.Configs[t] = e - h.TaskPtr[t]
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	registry.WriteCatalogNDJSON(w)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.Metrics().WritePrometheus(w)
}

func (s *server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Solves []service.LiveSolve `json:"solves"`
	}{s.svc.LiveSolves()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: strings.TrimSpace(msg)})
}

// bodyErrorStatus maps an error reading a request body to its status: 413
// for a body over -max-body, 400 for anything else.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
