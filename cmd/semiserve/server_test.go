package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"semimatch/internal/encode"
	"semimatch/internal/gen"
	"semimatch/internal/registry"
	"semimatch/internal/service"
)

const tinyHyper = `hypergraph 3 3 5
0 3 2 0 1
0 8 1 0
1 3 1 2
2 2 1 1
2 5 2 0 2
`

// isomorph of tinyHyper: configurations and processors listed in a
// different order.
const tinyHyperIso = `hypergraph 3 3 5
0 8 1 0
0 3 2 1 0
1 3 1 2
2 5 2 2 0
2 2 1 1
`

func startServer(t *testing.T, opts service.Options) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(opts)
	ts := httptest.NewServer(newServer(svc, serverConfig{}))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postSolve(t *testing.T, url, body string) (int, solveResponse, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var sr solveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &sr); err != nil {
			t.Fatalf("bad solve response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, sr, buf.String()
}

func getStats(t *testing.T, base string) service.Stats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

// hardHyperText is an instance whose branch and bound cannot finish
// within a short deadline (60 tasks, several configurations each).
func hardHyperText(t *testing.T) string {
	t.Helper()
	return genHyperText(t, gen.HyperParams{
		Gen: gen.FewgManyg, N: 60, P: 16, Dv: 4, Dh: 3, G: 4,
		Weights: gen.Random, MaxW: 100,
	}, 3)
}

// genHyperText generates one MULTIPROC instance in the text format.
func genHyperText(t *testing.T, p gen.HyperParams, seed int64) string {
	t.Helper()
	h, err := gen.Hypergraph(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encode.WriteHypergraph(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSolveCacheHit: the second identical request is served from the
// cache — the hit counter increments and no second solve runs. A third,
// isomorphic request hits too.
func TestSolveCacheHit(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	code, r1, raw := postSolve(t, ts.URL+"/solve?alg=EVG", tinyHyper)
	if code != http.StatusOK {
		t.Fatalf("first solve: %d %s", code, raw)
	}
	if r1.Cached || r1.Kind != "hypergraph" || r1.Algorithm != "EVG" {
		t.Fatalf("first solve: %+v", r1)
	}
	code, r2, raw := postSolve(t, ts.URL+"/solve?alg=EVG", tinyHyper)
	if code != http.StatusOK {
		t.Fatalf("second solve: %d %s", code, raw)
	}
	if !r2.Cached {
		t.Fatalf("second identical request was not a cache hit: %+v", r2)
	}
	if r2.Makespan != r1.Makespan || r2.Fingerprint != r1.Fingerprint {
		t.Fatalf("cache hit disagrees: %+v vs %+v", r1, r2)
	}
	st := getStats(t, ts.URL)
	if st.Solves != 1 {
		t.Fatalf("solves = %d after two identical requests, want 1", st.Solves)
	}
	if st.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1", st.CacheHits)
	}

	// Isomorphic reordering: same fingerprint, still one solve.
	code, r3, raw := postSolve(t, ts.URL+"/solve?alg=EVG", tinyHyperIso)
	if code != http.StatusOK {
		t.Fatalf("isomorph solve: %d %s", code, raw)
	}
	if !r3.Cached || r3.Fingerprint != r1.Fingerprint || r3.Makespan != r1.Makespan {
		t.Fatalf("isomorph was not served from cache: %+v", r3)
	}
	if st := getStats(t, ts.URL); st.Solves != 1 {
		t.Fatalf("solves = %d after isomorph request, want 1", st.Solves)
	}
}

// TestSolveDeadlineTruncated: a deadline the branch and bound cannot
// meet yields 200 with the incumbent schedule flagged truncated.
func TestSolveDeadlineTruncated(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	code, r, raw := postSolve(t, ts.URL+"/solve?alg=bnb&deadline=50ms", hardHyperText(t))
	if code != http.StatusOK {
		t.Fatalf("deadline-limited solve: %d %s", code, raw)
	}
	if !r.Truncated {
		t.Fatalf("expected a truncated incumbent: %+v", r)
	}
	if len(r.Assignment) != 60 || r.Makespan <= 0 {
		t.Fatalf("incumbent looks wrong: makespan=%d len=%d", r.Makespan, len(r.Assignment))
	}
}

// TestSolveOverload: with a single admission slot held by a slow solve,
// the next request gets 429 and Retry-After.
func TestSolveOverload(t *testing.T) {
	ts, _ := startServer(t, service.Options{QueueDepth: 1, Workers: 1})
	hard := hardHyperText(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The search stops at the deadline (truncated) or, on a fast
		// host, at the engine's default node budget first (heuristic):
		// either way an unproven schedule.
		code, r, raw := postSolve(t, ts.URL+"/solve?alg=bnb&deadline=1s", hard)
		if code != http.StatusOK || r.Optimal {
			t.Errorf("slow request: %d %s", code, raw)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, ts.URL).InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/solve?alg=EVG", "text/plain", strings.NewReader(tinyHyper))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	wg.Wait()
	if st := getStats(t, ts.URL); st.Overloaded != 1 {
		t.Fatalf("overloaded = %d, want 1", st.Overloaded)
	}
}

// TestSolveHTTPInflightCap: the HTTP-level in-flight limit sheds excess
// /solve requests with 429 before any parsing happens.
func TestSolveHTTPInflightCap(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newServer(svc, serverConfig{maxInflight: 1}))
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, raw := postSolve(t, ts.URL+"/solve?alg=bnb&deadline=1s", hardHyperText(t))
		if code != http.StatusOK {
			t.Errorf("slow request: %d %s", code, raw)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(tinyHyper))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 from the HTTP in-flight cap", resp.StatusCode)
	}
	wg.Wait()
}

// TestSolveJSONInstance: the sched JSON instance schema is accepted and
// the response carries per-task configuration indices.
func TestSolveJSONInstance(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	body := `{
	  "processors": ["cpu0", "cpu1", "gpu"],
	  "tasks": [
	    {"name": "render", "configs": [
	      {"procs": [0], "time": 8},
	      {"procs": [0, 2], "time": 3}
	    ]},
	    {"name": "encode", "configs": [{"procs": [1], "time": 6}]}
	  ]
	}`
	code, r, raw := postSolve(t, ts.URL+"/solve", body)
	if code != http.StatusOK {
		t.Fatalf("JSON solve: %d %s", code, raw)
	}
	if r.Kind != "hypergraph" || len(r.Configs) != 2 || len(r.Loads) != 3 {
		t.Fatalf("JSON solve response: %+v", r)
	}
	// Optimal choice: render on {cpu0,gpu} for 3, encode on cpu1 for 6.
	if r.Makespan != 6 || r.Configs[0] != 1 || r.Configs[1] != 0 {
		t.Fatalf("JSON solve picked the wrong schedule: %+v", r)
	}
}

// TestSolveBipartiteText: a bipartite instance routes to the SINGLEPROC
// catalog, and the auto policy proves unit optimality.
func TestSolveBipartiteText(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	body := "bipartite 3 2 unit\n0 0\n0 1\n1 0\n2 0\n2 1\n"
	code, r, raw := postSolve(t, ts.URL+"/solve", body)
	if code != http.StatusOK {
		t.Fatalf("bipartite solve: %d %s", code, raw)
	}
	if r.Kind != "bipartite" || !strings.HasPrefix(r.Algorithm, "auto:") || !r.Optimal {
		t.Fatalf("bipartite auto: %+v", r)
	}
	if r.Makespan != 2 { // 3 unit tasks on 2 processors
		t.Fatalf("makespan = %d, want 2", r.Makespan)
	}
}

func TestSolveBadRequests(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"empty body", "/solve", "", http.StatusBadRequest},
		{"garbage", "/solve", "not an instance", http.StatusBadRequest},
		{"unknown alg", "/solve?alg=nope", tinyHyper, http.StatusBadRequest},
		{"bad deadline", "/solve?deadline=-3x", tinyHyper, http.StatusBadRequest},
		{"wrong class alg", "/solve?alg=basic", tinyHyper, http.StatusBadRequest},
		// Headers declaring 2^26 tasks for a one-edge body.
		{"hostile hypergraph header", "/solve", "hypergraph 67108864 1 1\n0 1 1 0\n", http.StatusBadRequest},
		{"hostile bipartite header", "/solve", "bipartite 67108864 1 unit\n0 0\n", http.StatusBadRequest},
		// Task 1 has no eligible processor, so no schedule exists.
		{"isolated weighted task", "/solve", "bipartite 2 2 weighted\n0 0 3\n0 1 5\n", http.StatusBadRequest},
		{"isolated unit task", "/solve", "bipartite 2 2 unit\n0 0\n0 1\n", http.StatusBadRequest},
	}
	for _, c := range cases {
		code, _, raw := postSolve(t, ts.URL+c.url, c.body)
		if code != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, code, raw, c.want)
		}
		var er errorResponse
		if err := json.Unmarshal([]byte(raw), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", c.name, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve = %d, want 405", resp.StatusCode)
	}
}

// TestAlgorithmsEndpoint: GET /algorithms serves the registry catalog as
// NDJSON, one record per solver.
func TestAlgorithmsEndpoint(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	resp, err := http.Get(ts.URL + "/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		var rec registry.SolverRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if rec.Name == "" || rec.Class == "" {
			t.Fatalf("line %d incomplete: %s", n+1, sc.Text())
		}
		n++
	}
	if n != len(registry.Solvers()) {
		t.Fatalf("%d records for %d solvers", n, len(registry.Solvers()))
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if got := strings.TrimSpace(buf.String()); got != "ok" {
		t.Fatalf("healthz body %q", got)
	}
	// /stats includes uptime alongside the service counters.
	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "cache_hits", "uptime_s", "queue_depth"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats missing %q: %v", key, raw)
		}
	}
}

// TestSolveCertificateFields: the response carries the proof-carrying
// result surface — lower bound, trust tier and optimality witness — and
// an optimal auto solve verifies above the heuristic tier.
func TestSolveCertificateFields(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	code, r, raw := postSolve(t, ts.URL+"/solve", tinyHyper)
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	if !r.Optimal || r.Makespan != 5 {
		t.Fatalf("auto solve: %+v", r)
	}
	if r.LowerBound != r.Makespan {
		t.Fatalf("optimal result lower_bound %d ≠ makespan %d", r.LowerBound, r.Makespan)
	}
	if r.Trust != "verified" && r.Trust != "attested" {
		t.Fatalf("optimal result trust %q, want a verified tier", r.Trust)
	}
	if r.Witness == "" || r.Witness == "none" {
		t.Fatalf("optimal result witness %q, want an optimality witness", r.Witness)
	}
	// The raw body exposes the documented field names.
	var fields map[string]any
	if err := json.Unmarshal([]byte(raw), &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"lower_bound", "trust", "witness"} {
		if _, ok := fields[key]; !ok {
			t.Errorf("response missing %q: %s", key, raw)
		}
	}
}

// TestSolveDiskRestart: with -cache-dir, a result solved by one server
// process is served as a cache hit by a freshly started one — even for an
// isomorphic restatement of the instance — straight from the disk tier.
func TestSolveDiskRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _ := startServer(t, service.Options{CacheDir: dir})
	code, r1, raw := postSolve(t, ts1.URL+"/solve", tinyHyper)
	if code != http.StatusOK {
		t.Fatalf("first solve: %d %s", code, raw)
	}
	if r1.Cached || !r1.Optimal {
		t.Fatalf("first solve: %+v", r1)
	}
	if st := getStats(t, ts1.URL); st.DiskWrites != 1 {
		t.Fatalf("first server did not persist: %+v", st)
	}
	ts1.Close()

	ts2, _ := startServer(t, service.Options{CacheDir: dir})
	code, r2, raw := postSolve(t, ts2.URL+"/solve", tinyHyperIso)
	if code != http.StatusOK {
		t.Fatalf("restart solve: %d %s", code, raw)
	}
	if !r2.Cached {
		t.Fatalf("restarted server re-solved: %+v", r2)
	}
	if r2.Makespan != r1.Makespan || r2.Fingerprint != r1.Fingerprint || !r2.Optimal {
		t.Fatalf("disk-served result disagrees: %+v vs %+v", r1, r2)
	}
	if r2.Trust != "verified" && r2.Trust != "attested" {
		t.Fatalf("disk-served result trust %q", r2.Trust)
	}
	st := getStats(t, ts2.URL)
	if st.DiskHits != 1 || st.Solves != 0 {
		t.Fatalf("restart was not a disk hit: %+v", st)
	}
}
