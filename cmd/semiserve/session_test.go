package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semimatch/internal/service"
	"semimatch/internal/session"
)

func startSessionServer(t *testing.T, cfg serverConfig) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newServer(svc, cfg))
	t.Cleanup(ts.Close)
	return ts, svc
}

// createSession opens a session and returns its id.
func createSession(t *testing.T, base string, hdr session.ScriptHeader) string {
	t.Helper()
	body, _ := json.Marshal(hdr)
	resp, err := http.Post(base+"/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /session: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /session: status %d: %s", resp.StatusCode, b)
	}
	var created sessionCreated
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatalf("decoding create response: %v", err)
	}
	if created.ID == "" {
		t.Fatal("created session without an id")
	}
	return created.ID
}

// postEvents applies a batch of events and returns the per-event reports.
func postEvents(t *testing.T, base, id string, events []session.Event) []*session.SessionReport {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		enc.Encode(ev)
	}
	resp, err := http.Post(base+"/session/"+id+"/events", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatalf("POST events: %v", err)
	}
	defer resp.Body.Close()
	var er eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decoding events response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST events: status %d: %s", resp.StatusCode, er.Error)
	}
	if len(er.Reports) != len(events) {
		t.Fatalf("posted %d events, got %d reports", len(events), len(er.Reports))
	}
	return er.Reports
}

// getState fetches the session snapshot.
func getState(t *testing.T, base, id string) session.State {
	t.Helper()
	resp, err := http.Get(base + "/session/" + id)
	if err != nil {
		t.Fatalf("GET session: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session: status %d", resp.StatusCode)
	}
	var st session.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	return st
}

// checkSnapshot asserts the snapshot is a feasible schedule: loads are
// exactly the placed tasks' contributions and the makespan is their max.
func checkSnapshot(t *testing.T, st session.State, procs int) {
	t.Helper()
	loads := make([]int64, procs)
	for _, task := range st.Tasks {
		for _, p := range task.Procs {
			if p < 0 || int(p) >= procs {
				t.Fatalf("task %q placed on processor %d of %d", task.ID, p, procs)
			}
			loads[p] += task.Weight
		}
	}
	var peak int64
	for p, l := range loads {
		if l != st.Loads[p] {
			t.Fatalf("processor %d: reported load %d, recomputed %d", p, st.Loads[p], l)
		}
		if l > peak {
			peak = l
		}
	}
	if peak != st.Makespan {
		t.Fatalf("reported makespan %d, recomputed %d", st.Makespan, peak)
	}
}

// ssePush is one parsed server-sent event.
type ssePush struct {
	event string
	data  []byte
}

// streamSSE opens the session's event stream and forwards parsed events
// until the stream ends; it closes out at EOF.
func streamSSE(t *testing.T, base, id string, out chan<- ssePush) (started <-chan struct{}) {
	t.Helper()
	ready := make(chan struct{})
	go func() {
		defer close(out)
		resp, err := http.Get(base + "/session/" + id + "/events")
		if err != nil {
			t.Errorf("GET events stream: %v", err)
			close(ready)
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("stream content type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		var cur ssePush
		first := true
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = []byte(strings.TrimPrefix(line, "data: "))
			case line == "" && cur.event != "":
				if first {
					close(ready)
					first = false
				}
				out <- cur
				cur = ssePush{}
			}
		}
	}()
	return ready
}

// TestSessionEndToEnd is the ISSUE's integration criterion: a 200-event
// session against the HTTP surface streams monotone incumbents over SSE,
// intermediate schedules are feasible, warm-started re-solves explore
// strictly fewer total nodes than cold re-solves of the same instances,
// and λ > 0 migrates less than λ = 0.
func TestSessionEndToEnd(t *testing.T) {
	ts, svc := startSessionServer(t, serverConfig{sessions: 8, sessionIdle: time.Minute})
	const procs = 3
	id := createSession(t, ts.URL, session.ScriptHeader{Procs: procs, CompareCold: true})

	pushes := make(chan ssePush, 4096)
	<-streamSSE(t, ts.URL, id, pushes)

	events := session.GenerateScript(session.ScriptOptions{
		Seed: 11, Events: 200, Procs: procs, MaxWeight: 20,
	})
	var reports []*session.SessionReport
	for i := 0; i < len(events); i += 25 {
		end := min(i+25, len(events))
		reports = append(reports, postEvents(t, ts.URL, id, events[i:end])...)
		checkSnapshot(t, getState(t, ts.URL, id), procs)
	}

	if len(reports) != len(events) {
		t.Fatalf("%d reports for %d events", len(reports), len(events))
	}
	var warmTotal, coldTotal int64
	for i, rep := range reports {
		if rep.Seq != int64(i+1) {
			t.Fatalf("report %d has seq %d", i, rep.Seq)
		}
		if rep.Makespan > rep.PatchedMakespan {
			t.Fatalf("seq %d: adopted makespan %d above the patch's %d", rep.Seq, rep.Makespan, rep.PatchedMakespan)
		}
		if rep.SolveStatus != "skipped" && rep.LowerBound > rep.Makespan {
			t.Fatalf("seq %d: lower bound %d above makespan %d", rep.Seq, rep.LowerBound, rep.Makespan)
		}
		warmTotal += rep.Nodes
		coldTotal += rep.ColdNodes
	}
	if warmTotal >= coldTotal {
		t.Fatalf("warm re-solves explored %d nodes, cold %d: warm starts saved nothing", warmTotal, coldTotal)
	}

	// Tear the session down; the stream must end with a "closed" event.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE session: %v (status %v)", err, resp.Status)
	}

	// Drain the stream: an initial state event, per-seq monotone
	// incumbents, one report per event, then closed.
	sawState, sawClosed := false, false
	nReports := 0
	lastBySeq := make(map[int64]int64)
	deadline := time.After(30 * time.Second)
	for {
		var p ssePush
		var ok bool
		select {
		case p, ok = <-pushes:
		case <-deadline:
			t.Fatal("stream did not close after session delete")
		}
		if !ok {
			break
		}
		switch p.event {
		case "state":
			sawState = true
		case "closed":
			sawClosed = true
		case "report":
			nReports++
		case "incumbent":
			var inc incumbentWire
			if err := json.Unmarshal(p.data, &inc); err != nil {
				t.Fatalf("bad incumbent payload %s: %v", p.data, err)
			}
			if last, seen := lastBySeq[inc.Seq]; seen && inc.Makespan > last {
				t.Fatalf("seq %d: incumbent regressed %d -> %d", inc.Seq, last, inc.Makespan)
			}
			lastBySeq[inc.Seq] = inc.Makespan
		default:
			t.Fatalf("unknown SSE event %q", p.event)
		}
	}
	if !sawState || !sawClosed {
		t.Fatalf("stream lifecycle incomplete: state=%v closed=%v", sawState, sawClosed)
	}
	if len(lastBySeq) == 0 {
		t.Fatal("no incumbents streamed")
	}
	if nReports != len(events) {
		t.Fatalf("streamed %d reports for %d events", nReports, len(events))
	}

	// λ > 0 must migrate less than λ = 0 over the same script.
	migrations := func(lambda float64) int {
		id := createSession(t, ts.URL, session.ScriptHeader{Procs: procs, Lambda: lambda})
		migs := 0
		for _, rep := range postEvents(t, ts.URL, id, events) {
			migs += rep.Migrations
		}
		return migs
	}
	migsFree := migrations(0)
	migsPenalized := migrations(1000)
	if migsFree == 0 {
		t.Fatal("λ=0 session never migrated: the script exercises nothing")
	}
	if migsPenalized >= migsFree {
		t.Fatalf("λ=1000 migrated %d tasks, λ=0 migrated %d", migsPenalized, migsFree)
	}

	st := getStats(t, ts.URL)
	if st.Requests != 0 {
		t.Fatalf("session traffic counted as solve requests: %d", st.Requests)
	}
	_ = svc
}

// TestSessionMetricsAndLifecycle checks the session endpoints' error
// paths and the semimatch_session_* metric families.
func TestSessionMetricsAndLifecycle(t *testing.T) {
	ts, _ := startSessionServer(t, serverConfig{sessions: 1, sessionIdle: time.Minute})

	// Bad config.
	resp, err := http.Post(ts.URL+"/session", "application/json", strings.NewReader(`{"procs":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("procs=0 create: status %d", resp.StatusCode)
	}

	id := createSession(t, ts.URL, session.ScriptHeader{Procs: 2})

	// Capacity: the second session must shed with 429.
	body, _ := json.Marshal(session.ScriptHeader{Procs: 2})
	resp, err = http.Post(ts.URL+"/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create beyond cap: status %d, want 429", resp.StatusCode)
	}

	// Unknown session id.
	resp, err = http.Get(ts.URL + "/session/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", resp.StatusCode)
	}

	// A bad event answers 400 and reports the applied prefix.
	var buf bytes.Buffer
	fmt.Fprintln(&buf, `{"op":"arrive","task":{"id":"a","configs":[{"procs":[0],"weight":2}]}}`)
	fmt.Fprintln(&buf, `{"op":"depart","id":"ghost"}`)
	resp, err = http.Post(ts.URL+"/session/"+id+"/events", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var er eventsResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || len(er.Reports) != 1 || er.Error == "" {
		t.Fatalf("bad batch: status %d, %d reports, error %q", resp.StatusCode, len(er.Reports), er.Error)
	}

	// The metric families must be live and the event counted.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"semimatch_sessions_open 1",
		"semimatch_sessions_total 1",
		"semimatch_session_events_total 1",
		"semimatch_sessions_evicted_total 0",
		"semimatch_session_overloaded_total 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// DELETE closes; further events answer 404 (gone from the manager).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %v (%v)", err, resp.Status)
	}
	resp, err = http.Post(ts.URL+"/session/"+id+"/events", "application/x-ndjson",
		strings.NewReader(`{"op":"depart","id":"a"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events after delete: status %d", resp.StatusCode)
	}

	// The closed session leaves the live gauge; the total keeps it.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"semimatch_sessions_open 0",
		"semimatch_sessions_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics after delete missing %q", want)
		}
	}
}

// TestSessionIdleEviction proves idle sessions are reaped and counted.
func TestSessionIdleEviction(t *testing.T) {
	ts, _ := startSessionServer(t, serverConfig{sessions: 4, sessionIdle: 150 * time.Millisecond})
	id := createSession(t, ts.URL, session.ScriptHeader{Procs: 2})
	// Snapshot reads count as activity, so poll the metrics — not the
	// session — while waiting for the sweeper.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(metrics), "semimatch_sessions_evicted_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(50 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still routable: status %d", resp.StatusCode)
	}
}

// TestSessionsDisabled: -sessions 0 removes the surface.
func TestSessionsDisabled(t *testing.T) {
	ts, _ := startSessionServer(t, serverConfig{})
	resp, err := http.Post(ts.URL+"/session", "application/json", strings.NewReader(`{"procs":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("sessions disabled: status %d, want 404", resp.StatusCode)
	}
}

// padJSON pads a JSON object with spaces after its opening brace until
// the encoding is exactly size bytes long.
func padJSON(t *testing.T, v any, size int) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > size {
		t.Fatalf("object is %d bytes, cannot pad to %d", len(b), size)
	}
	return append([]byte("{"+strings.Repeat(" ", size-len(b))), b[1:]...)
}

// postRaw posts body to url and returns the status and the decoded
// events response (the error responses share its "error" field).
func postRaw(t *testing.T, url string, body []byte) (int, eventsResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var er eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("POST %s: decoding response: %v", url, err)
	}
	return resp.StatusCode, er
}

// TestSessionBodyOverCap: a session body over -max-body is answered 413,
// as /solve answers it, from both the create and the events handler; a
// line cut short by the cap is never applied.
func TestSessionBodyOverCap(t *testing.T) {
	const maxBody = 4096
	ts, _ := startSessionServer(t, serverConfig{sessions: 4, sessionIdle: time.Minute, maxBody: maxBody})
	hdr := session.ScriptHeader{Procs: 2, Multi: true}
	if code, er := postRaw(t, ts.URL+"/session", padJSON(t, hdr, maxBody+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d (%s), want 413", code, er.Error)
	}
	if code, er := postRaw(t, ts.URL+"/session", padJSON(t, hdr, maxBody)); code != http.StatusCreated {
		t.Fatalf("create at the cap: status %d (%s), want 201", code, er.Error)
	}

	id := createSession(t, ts.URL, hdr)
	ev := session.GenerateScript(session.ScriptOptions{Seed: 1, Events: 1, Procs: 2, Multi: true})[0]
	code, er := postRaw(t, ts.URL+"/session/"+id+"/events", padJSON(t, ev, maxBody+1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized event line: status %d (%s), want 413", code, er.Error)
	}
	if len(er.Reports) != 0 {
		t.Fatalf("oversized event line applied %d events", len(er.Reports))
	}
	// Complete lines ahead of the cap apply; the line the cap cuts does not.
	small, _ := json.Marshal(ev)
	body := append(append(small, '\n'), padJSON(t, ev, maxBody)...)
	code, er = postRaw(t, ts.URL+"/session/"+createSession(t, ts.URL, hdr)+"/events", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch over the cap: status %d (%s), want 413", code, er.Error)
	}
	if len(er.Reports) > 1 {
		t.Fatalf("batch over the cap applied %d events, want at most the first", len(er.Reports))
	}
}

// TestSessionLongEventLine: the events scanner grows its buffer as far as
// -max-body, so a line past 64 KiB applies, and so does a one-line body
// that fills the cap exactly.
func TestSessionLongEventLine(t *testing.T) {
	const maxBody = 256 << 10
	ts, _ := startSessionServer(t, serverConfig{sessions: 4, sessionIdle: time.Minute, maxBody: maxBody})
	id := createSession(t, ts.URL, session.ScriptHeader{Procs: 2, Multi: true})
	events := session.GenerateScript(session.ScriptOptions{Seed: 2, Events: 2, Procs: 2, Multi: true})
	for i, body := range [][]byte{
		append(padJSON(t, events[0], 100<<10), '\n'),
		padJSON(t, events[1], maxBody),
	} {
		code, er := postRaw(t, ts.URL+"/session/"+id+"/events", body)
		if code != http.StatusOK || len(er.Reports) != 1 {
			t.Fatalf("%d-byte event line: status %d, %d reports (%s)", len(body), code, len(er.Reports), er.Error)
		}
		if er.Reports[0].Seq != int64(i+1) {
			t.Fatalf("%d-byte event line: seq %d, want %d", len(body), er.Reports[0].Seq, i+1)
		}
	}
}
