package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"semimatch/internal/cluster"
	"semimatch/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	cacheEntries := flag.Int("cache", service.DefaultCacheEntries, "result-cache capacity in entries (negative disables)")
	cacheDir := flag.String("cache-dir", "", "directory for the durable cache tier: verified results persist across restarts (empty disables)")
	queueDepth := flag.Int("queue", service.DefaultQueueDepth, "max solves in flight before requests get 429")
	workers := flag.Int("workers", 0, "max concurrently running solves (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 10*time.Second, "default per-request deadline when none is given (0 = none)")
	maxDeadline := flag.Duration("max-deadline", time.Minute, "cap on the per-request ?deadline= override (0 = no cap)")
	maxInflight := flag.Int("http-inflight", 64, "max concurrent /solve requests, parsing included (0 = unlimited)")
	maxBody := flag.Int64("max-body", 0, "max /solve request body in bytes (0 = 16MiB; worst-case buffered memory is this times -http-inflight)")
	doRefine := flag.Bool("refine", false, "post-process every MULTIPROC schedule (auto and named) with local search")
	logLevel := flag.String("log-level", "info", "structured access-log level: debug, info, warn, error, or off")
	ledgerPath := flag.String("ledger", "", "append one JSONL solve-ledger record per fresh solve to this file (empty disables)")
	tracePath := flag.String("trace", "", "write one NDJSON request-trace span tree per request to this file (\"-\" = stderr, empty disables)")
	doPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	maxSessions := flag.Int("sessions", 64, "max concurrently open dynamic sessions (0 disables the /session endpoints)")
	sessionIdle := flag.Duration("session-idle", 5*time.Minute, "evict sessions with no events and no open stream for this long (0 = never)")
	peersList := flag.String("peers", "", "comma-separated base URLs of the fleet's replicas (self may be included); enables cache peering, requires -self")
	selfURL := flag.String("self", "", "this replica's own base URL as peers reach it (e.g. http://10.0.0.3:8080); required with -peers")
	peerTimeout := flag.Duration("peer-timeout", service.DefaultPeerTimeout, "cap on one peer cache fetch (further tightened to half the request's remaining deadline)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: semiserve [-addr :8080] [-cache n] [-queue n] [-workers n] [-deadline d]")
		os.Exit(2)
	}

	if *cacheDir != "" {
		// Fail fast on an unusable directory: the service itself degrades
		// gracefully, but a server explicitly asked to persist should not
		// come up silently unable to.
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "semiserve: -cache-dir: %v\n", err)
			os.Exit(1)
		}
	}

	var logger *slog.Logger
	if *logLevel != "off" {
		var level slog.Level
		if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
			fmt.Fprintf(os.Stderr, "semiserve: -log-level: %v\n", err)
			os.Exit(2)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}

	var traceW io.Writer
	if *tracePath == "-" {
		traceW = os.Stderr
	} else if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "semiserve: -trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		traceW = f
	}

	// The cluster layer: the ring names each fingerprint's owner, and the
	// service's peer-cache tier fetches the owner's entry through a
	// bounded client.
	var peerCache service.PeerCache
	if *peersList != "" {
		if *selfURL == "" {
			fmt.Fprintln(os.Stderr, "semiserve: -peers requires -self (this replica's own base URL)")
			os.Exit(2)
		}
		ring, err := cluster.NewRing(*selfURL, strings.Split(*peersList, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "semiserve: -peers: %v\n", err)
			os.Exit(2)
		}
		peerCache = &peerAdapter{ring: ring, client: cluster.NewClient()}
	}

	svc := service.New(service.Options{
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		Refine:          *doRefine,
		LedgerPath:      *ledgerPath,
		TraceWriter:     traceW,
		Peers:           peerCache,
		PeerTimeout:     *peerTimeout,
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "semiserve: %v\n", err)
		os.Exit(1)
	}
	// The actual address is printed (not just the flag value) so scripts
	// can start on port 0 and scrape the port — the CI smoke job does.
	fmt.Printf("semiserve: listening on %s\n", ln.Addr())

	// WriteTimeout must outlive the longest admissible solve (it covers
	// the handler, not just the response write); the other timeouts shed
	// slow-client connections that would otherwise pin goroutines and
	// partially-read bodies forever.
	writeTimeout := 5 * time.Minute
	if *maxDeadline > 0 {
		writeTimeout = *maxDeadline + 30*time.Second
	}
	srv := &http.Server{
		Handler: newServer(svc, serverConfig{
			maxDeadline: *maxDeadline,
			maxInflight: *maxInflight,
			maxBody:     *maxBody,
			logger:      logger,
			pprof:       *doPprof,
			sessions:    *maxSessions,
			sessionIdle: *sessionIdle,
			trace:       traceW != nil,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "semiserve: %v\n", err)
		os.Exit(1)
	}
}
