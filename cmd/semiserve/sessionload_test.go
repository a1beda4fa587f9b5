package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"semimatch/internal/session"
)

// TestSessionLoadAgainstServer replays a seeded session script against a
// real server, one event per request, with the cold comparison enabled,
// so every exact re-solve runs twice and the warm/cold node totals must
// show warm starts never searching more.
func TestSessionLoadAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("session load replay in -short mode")
	}
	const events, procs = 60, 3
	ts, _ := startSessionServer(t, serverConfig{sessions: 4})
	id := createSession(t, ts.URL, session.ScriptHeader{Procs: procs, Lambda: 1, CompareCold: true})

	script := session.GenerateScript(session.ScriptOptions{
		Seed:      7,
		Events:    events,
		Procs:     procs,
		MaxWeight: 30,
	})
	if len(script) != events {
		t.Fatalf("script has %d events, want %d", len(script), events)
	}
	var warmNodes, coldNodes int64
	var last *session.SessionReport
	latencies := make([]time.Duration, 0, len(script))
	for _, ev := range script {
		t0 := time.Now()
		last = postEvents(t, ts.URL, id, []session.Event{ev})[0]
		latencies = append(latencies, time.Since(t0))
		warmNodes += last.Nodes
		coldNodes += last.ColdNodes
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50, p99 := latencies[len(latencies)/2], latencies[len(latencies)*99/100]
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("bad latency percentiles: p50=%v p99=%v", p50, p99)
	}
	if last.Tasks <= 0 || last.Makespan <= 0 {
		t.Fatalf("final state: tasks=%d makespan=%d", last.Tasks, last.Makespan)
	}
	if coldNodes == 0 {
		t.Fatal("cold comparison never ran — compare_cold not honored")
	}
	if warmNodes > coldNodes {
		t.Fatalf("warm starts searched more than cold: %d > %d", warmNodes, coldNodes)
	}
	checkSnapshot(t, getState(t, ts.URL, id), procs)

	// Deleting the session leaves one opened and none still live in the
	// service counters.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"semimatch_sessions_total 1",
		"semimatch_sessions_open 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
