package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"semimatch/internal/cluster"
	"semimatch/internal/encode"
	"semimatch/internal/gen"
	"semimatch/internal/service"
)

// replica is one fleet member under test: its HTTP server and a direct
// handle on the service for stats assertions.
type replica struct {
	ts  *httptest.Server
	svc *service.Service
	url string
}

// startFleet brings up n peered semiserve replicas on real loopback
// listeners. The listeners are created first so every replica's base URL
// is known before any ring is built — the same order of operations a
// deployment with a static fleet config has.
func startFleet(t *testing.T, n int) []*replica {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range reps {
		ring, err := cluster.NewRing(urls[i], urls)
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Options{Peers: &peerAdapter{ring: ring, client: cluster.NewClient()}})
		ts := httptest.NewUnstartedServer(newServer(svc, serverConfig{}))
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		reps[i] = &replica{ts: ts, svc: svc, url: urls[i]}
	}
	return reps
}

// ownerOf splits a fleet into the replica owning the given instance text
// and the others, using the same ring the replicas' peer tiers ask by.
func ownerOf(t *testing.T, reps []*replica, instanceText string) (owner *replica, others []*replica) {
	t.Helper()
	h, err := encode.ReadHypergraph(strings.NewReader(instanceText))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := encode.FingerprintHypergraph(h)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(reps))
	for i, rep := range reps {
		urls[i] = rep.url
	}
	ring, err := cluster.NewRing(urls[0], urls)
	if err != nil {
		t.Fatal(err)
	}
	ownerURL := ring.Owner(fp)
	for _, rep := range reps {
		if rep.url == ownerURL {
			owner = rep
		} else {
			others = append(others, rep)
		}
	}
	if owner == nil {
		t.Fatalf("no replica owns %s", ownerURL)
	}
	return owner, others
}

// scrapeMetric returns the value line for one metric family from a
// replica's /metrics.
func scrapeMetric(t *testing.T, base, family string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, family+" ") {
			return line
		}
	}
	return ""
}

// TestFleetCrossReplicaVerifiedHit is the acceptance criterion: an entry
// solved on replica A answers an isomorphic request on replica B as a
// verified "peer" hit — B re-verifies the certificate, runs no solve of
// its own, and admits the entry to its own cache.
func TestFleetCrossReplicaVerifiedHit(t *testing.T) {
	reps := startFleet(t, 3)
	owner, others := ownerOf(t, reps, tinyHyper)

	code, ra, raw := postSolve(t, owner.ts.URL+"/solve", tinyHyper)
	if code != http.StatusOK {
		t.Fatalf("owner solve: %d %s", code, raw)
	}
	if ra.CacheTier != "none" || ra.Cached {
		t.Fatalf("owner's first solve cache_tier = %q", ra.CacheTier)
	}

	b := others[0]
	code, rb, raw := postSolve(t, b.ts.URL+"/solve", tinyHyperIso)
	if code != http.StatusOK {
		t.Fatalf("peer solve: %d %s", code, raw)
	}
	if rb.CacheTier != "peer" || !rb.Cached {
		t.Fatalf("cross-replica cache_tier = %q, want peer", rb.CacheTier)
	}
	if rb.Makespan != ra.Makespan || rb.Fingerprint != ra.Fingerprint {
		t.Fatalf("peer hit disagrees with the origin solve: %+v vs %+v", rb, ra)
	}

	stB := b.svc.Stats()
	if stB.PeerHits != 1 || stB.Solves != 0 {
		t.Fatalf("B peer_hits=%d solves=%d, want 1/0", stB.PeerHits, stB.Solves)
	}
	if stB.VerifyFailures != 0 || stB.PeerVerifyFailures != 0 {
		t.Fatalf("verify failures on a genuine fleet entry: %+v", stB)
	}
	if stA := owner.svc.Stats(); stA.PeerServed != 1 {
		t.Fatalf("A peer_served = %d, want 1", stA.PeerServed)
	}
	if line := scrapeMetric(t, b.ts.URL, "semimatch_peer_hits_total"); line != "semimatch_peer_hits_total 1" {
		t.Fatalf("B /metrics peer hits line = %q", line)
	}

	// The adopted entry is B's own now: a repeat request hits B's memory.
	_, rb2, _ := postSolve(t, b.ts.URL+"/solve", tinyHyperIso)
	if rb2.CacheTier != "memory" {
		t.Fatalf("repeat on B cache_tier = %q, want memory", rb2.CacheTier)
	}
}

// restate is an isomorphic restatement of a text-format hypergraph: each
// configuration lists its processors in reverse, and each task lists its
// configurations in reverse. The canonical fingerprint is unchanged.
func restate(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	out := []string{lines[0]}
	var block []string
	flush := func() {
		slices.Reverse(block)
		out = append(out, block...)
		block = block[:0]
	}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(block) > 0 && strings.Fields(block[0])[0] != f[0] {
			flush()
		}
		slices.Reverse(f[3:])
		block = append(block, strings.Join(f, " "))
	}
	flush()
	return strings.Join(out, "\n") + "\n"
}

// fleetCounter sums one counter family over every replica's /metrics.
func fleetCounter(t *testing.T, reps []*replica, family string) float64 {
	t.Helper()
	total := 0.0
	for _, rep := range reps {
		line := scrapeMetric(t, rep.url, family)
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, family+" "), 64)
		if err != nil {
			t.Fatalf("%s /metrics %s line %q: %v", rep.url, family, line, err)
		}
		total += v
	}
	return total
}

// TestFleetWarmLoad: concurrent clients post repeats and isomorphs of a
// warm working set to both replicas of a peering fleet.
// Each instance was solved once by its owner, so every answer comes from
// a cache tier — the replica's own memory, or the owner's entry carried
// across as a verified peer hit — and the fleet runs no further solve.
func TestFleetWarmLoad(t *testing.T) {
	reps := startFleet(t, 2)
	var bodies [][2]string // each warm instance and its restatement
	for seed := int64(1); seed <= 4; seed++ {
		// 12 tasks, which the auto policy solves in well under a millisecond.
		text := genHyperText(t, gen.HyperParams{
			Gen: gen.FewgManyg, N: 12, P: 4, Dv: 2, Dh: 2, G: 2,
			Weights: gen.Random, MaxW: 40,
		}, seed)
		owner, _ := ownerOf(t, reps, text)
		if code, r, raw := postSolve(t, owner.url+"/solve", text); code != http.StatusOK || r.CacheTier != "none" {
			t.Fatalf("warm-up solve on the owner: %d tier %q %s", code, r.CacheTier, raw)
		}
		bodies = append(bodies, [2]string{text, restate(text)})
	}

	// Each client posts every instance in both statements to both
	// replicas, so every non-owner is asked for every instance.
	const clients, perClient = 4, 16
	var mu sync.Mutex
	tiers := map[string]int{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				body := bodies[j%4][(j/4)%2]
				target := reps[(c+j/8)%2].url
				resp, err := http.Post(target+"/solve", "text/plain", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST %s: %v", target, err)
					return
				}
				var r solveResponse
				err = json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("POST %s: status %d, decode %v", target, resp.StatusCode, err)
					return
				}
				mu.Lock()
				tiers[r.CacheTier]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if tiers["memory"]+tiers["peer"] != clients*perClient || tiers["peer"] == 0 {
		t.Fatalf("answer tiers %v: want only memory and peer, some peer", tiers)
	}
	solves := 0
	for _, rep := range reps {
		solves += int(rep.svc.Stats().Solves)
	}
	if solves != len(bodies) {
		t.Fatalf("fleet ran %d solves, want only the %d warm-ups", solves, len(bodies))
	}
	hits := fleetCounter(t, reps, "semimatch_peer_hits_total")
	served := fleetCounter(t, reps, "semimatch_peer_served_total")
	if hits == 0 || served == 0 {
		t.Fatalf("no cross-replica traffic: peer_hits=%v peer_served=%v", hits, served)
	}
}

// TestFleetAnswersLocally: a request posted to a replica that does not
// own its instance is answered by that replica, from the owner's
// verified entry. Nothing is relayed: the response carries no routing
// header, and the owner runs no solve for it.
func TestFleetAnswersLocally(t *testing.T) {
	reps := startFleet(t, 3)
	owner, others := ownerOf(t, reps, tinyHyper)
	b := others[0]
	if code, r, raw := postSolve(t, owner.url+"/solve", tinyHyper); code != http.StatusOK || r.CacheTier != "none" {
		t.Fatalf("owner solve: %d tier %q %s", code, r.CacheTier, raw)
	}
	ownerSolves := scrapeMetric(t, owner.url, "semimatch_solves_total")

	resp, err := http.Post(b.url+"/solve", "text/plain", strings.NewReader(tinyHyper))
	if err != nil {
		t.Fatal(err)
	}
	var r solveResponse
	err = json.NewDecoder(resp.Body).Decode(&r)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("non-owner solve: status %d, decode %v", resp.StatusCode, err)
	}
	if r.CacheTier != "peer" || !r.Cached {
		t.Fatalf("non-owner cache_tier = %q, want peer", r.CacheTier)
	}
	for name := range resp.Header {
		if strings.HasPrefix(name, "X-Semimatch-") {
			t.Fatalf("response carries routing header %s: %q", name, resp.Header.Get(name))
		}
	}
	if st := b.svc.Stats(); st.PeerHits != 1 || st.Solves != 0 {
		t.Fatalf("receiving replica peer_hits=%d solves=%d, want 1/0", st.PeerHits, st.Solves)
	}
	if got := scrapeMetric(t, owner.url, "semimatch_solves_total"); got != ownerSolves {
		t.Fatalf("owner solves moved: %q → %q", ownerSolves, got)
	}
}

// TestFleetColdPeerMiss: when the owning replica has nothing cached, the
// non-owner's peer fetch is a clean miss and the request degrades to a
// local fresh solve — peering can never lose a request.
func TestFleetColdPeerMiss(t *testing.T) {
	reps := startFleet(t, 3)
	_, others := ownerOf(t, reps, tinyHyper)
	b := others[0]

	code, r, raw := postSolve(t, b.ts.URL+"/solve", tinyHyper)
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	if r.CacheTier != "none" || r.Cached {
		t.Fatalf("cold fleet cache_tier = %q, want none", r.CacheTier)
	}
	if st := b.svc.Stats(); st.PeerMisses != 1 || st.Solves != 1 {
		t.Fatalf("peer_misses=%d solves=%d, want 1/1", st.PeerMisses, st.Solves)
	}
}

// TestPeerCacheEndpoint: the wire endpoint itself — escaped keys round-
// trip, misses are 404, non-GET is rejected.
func TestPeerCacheEndpoint(t *testing.T) {
	ts, svc := startServer(t, service.Options{})
	_, r, _ := postSolve(t, ts.URL+"/solve", tinyHyper)
	key := r.Fingerprint + "|auto|inf"

	resp, err := http.Get(ts.URL + cluster.CacheKeyPath(key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET entry: %d", resp.StatusCode)
	}
	var e service.PeerEntry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Key != key || e.Certificate == nil || e.Certificate.Makespan != r.Makespan {
		t.Fatalf("served entry %+v", e)
	}
	if svc.Stats().PeerServed != 1 {
		t.Fatal("peer_served not counted")
	}

	if resp, err := http.Get(ts.URL + cluster.CacheKeyPath("nothing|auto|inf")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("miss status = %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Post(ts.URL+cluster.CacheKeyPath(key), "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST status = %d, want 405", resp.StatusCode)
		}
	}
}
