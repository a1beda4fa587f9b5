package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func mkPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return peers
}

func mkKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real cache keys: hex fingerprint + algorithm + class.
		keys[i] = fmt.Sprintf("%064x|auto|inf", i*2654435761)
	}
	return keys
}

// TestRingDeterministicAcrossProcesses: two rings built from the same
// fleet — in different spellings and orders, from different "self"
// replicas — agree on every owner. This is the property that lets every
// replica name an owner independently with no coordination.
func TestRingDeterministicAcrossProcesses(t *testing.T) {
	peers := mkPeers(5)
	a, err := NewRing(peers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	// Ring b: same fleet, reversed order, self spelled with a trailing
	// slash and uppercase host, self not repeated in the peer list.
	shuffled := []string{
		peers[4] + "/", "REPLICA-3:8080", peers[1], peers[0],
	}
	b, err := NewRing(strings.ToUpper("replica-2")+":8080", shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.peers) != 5 || len(b.peers) != 5 {
		t.Fatalf("ring sizes = %d, %d, want 5", len(a.peers), len(b.peers))
	}
	for _, key := range mkKeys(2000) {
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("rings disagree on %q: %q vs %q", key, ao, bo)
		}
	}
}

// TestRingDistribution: for fleets of 3–16 peers, every peer owns within
// 15% of the uniform share of a large key population.
func TestRingDistribution(t *testing.T) {
	keys := mkKeys(20000)
	for n := 3; n <= 16; n++ {
		ring, err := NewRing(mkPeers(n)[0], mkPeers(n))
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int, n)
		for _, key := range keys {
			counts[ring.Owner(key)]++
		}
		want := float64(len(keys)) / float64(n)
		for peer, got := range counts {
			if dev := math.Abs(float64(got)-want) / want; dev > 0.15 {
				t.Errorf("n=%d: %s owns %d keys (uniform %.0f, deviation %.1f%%)",
					n, peer, got, want, 100*dev)
			}
		}
		if len(counts) != n {
			t.Errorf("n=%d: only %d peers own any keys", n, len(counts))
		}
	}
}

// TestRingRemovalRemapsOneShare: dropping one peer moves exactly the
// keys that peer owned (~1/N of the space) and no others — the
// rendezvous minimal-disruption property that makes rolling a replica
// out of the fleet cheap for the cache.
func TestRingRemovalRemapsOneShare(t *testing.T) {
	const n = 6
	peers := mkPeers(n)
	full, err := NewRing(peers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	dropped := peers[n-1]
	reduced, err := NewRing(peers[0], peers[:n-1])
	if err != nil {
		t.Fatal(err)
	}
	keys := mkKeys(20000)
	remapped, droppedShare := 0, 0
	for _, key := range keys {
		before := full.Owner(key)
		if before == dropped {
			droppedShare++
		}
		if after := reduced.Owner(key); after != before {
			remapped++
			if before != dropped {
				t.Fatalf("key %q moved %q → %q though %q was the peer removed",
					key, before, after, dropped)
			}
		}
	}
	if remapped != droppedShare {
		t.Fatalf("remapped %d keys, dropped peer owned %d — every orphaned key (and only those) must move",
			remapped, droppedShare)
	}
	share := float64(droppedShare) / float64(len(keys))
	if share < 1.0/n*0.85 || share > 1.0/n*1.15 {
		t.Fatalf("dropped peer owned %.1f%% of keys, want ~%.1f%%", 100*share, 100.0/n)
	}
}

// TestRingOwns: every key has exactly one replica whose Owner is itself.
func TestRingOwns(t *testing.T) {
	peers := mkPeers(4)
	rings := make([]*Ring, len(peers))
	for i, self := range peers {
		r, err := NewRing(self, peers)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
	}
	for _, key := range mkKeys(500) {
		owners := 0
		for _, r := range rings {
			if r.Owner(key) == r.Self() {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %q has %d owners, want exactly 1", key, owners)
		}
	}
}

func TestNewRingRejectsBadPeers(t *testing.T) {
	for _, bad := range []string{"", "ftp://x:1", "http://"} {
		if _, err := NewRing("http://a:1", []string{bad}); err == nil {
			t.Errorf("NewRing accepted bad peer %q", bad)
		}
	}
	if _, err := NewRing("", []string{"http://a:1"}); err == nil {
		t.Error("NewRing accepted empty self")
	}
}

// testEntry mirrors the wire shape closely enough for client tests.
type testEntry struct {
	Key      string `json:"key"`
	Makespan int64  `json:"makespan"`
}

// TestClientFetchEntry: 200 decodes, 404 is a clean miss, other statuses
// and garbled bodies are errors; the key is path-escaped and arrives
// intact.
func TestClientFetchEntry(t *testing.T) {
	const key = "abc123|BnB-MP|le2s"
	var gotPath string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		switch {
		case strings.HasSuffix(r.URL.Path, "miss"):
			http.NotFound(w, r)
		case strings.HasSuffix(r.URL.Path, "boom"):
			http.Error(w, "nope", http.StatusInternalServerError)
		case strings.HasSuffix(r.URL.Path, "garbled"):
			fmt.Fprint(w, "{not json")
		default:
			json.NewEncoder(w).Encode(testEntry{Key: key, Makespan: 42})
		}
	}))
	defer ts.Close()
	c := NewClient()

	var e testEntry
	ok, err := c.FetchEntry(context.Background(), ts.URL, key, &e)
	if err != nil || !ok {
		t.Fatalf("FetchEntry = %v, %v", ok, err)
	}
	if e.Key != key || e.Makespan != 42 {
		t.Fatalf("decoded entry %+v", e)
	}
	// net/http hands the handler the decoded path: the escaped pipe
	// characters must round-trip back to the exact key.
	if gotPath != "/internal/cache/"+key {
		t.Fatalf("decoded path = %q, want key %q to round-trip", gotPath, key)
	}

	if ok, err := c.FetchEntry(context.Background(), ts.URL, "miss", &e); ok || err != nil {
		t.Fatalf("404 fetch = %v, %v, want clean miss", ok, err)
	}
	if _, err := c.FetchEntry(context.Background(), ts.URL, "boom", &e); err == nil {
		t.Fatal("500 fetch succeeded")
	}
	if _, err := c.FetchEntry(context.Background(), ts.URL, "garbled", &e); err == nil {
		t.Fatal("garbled fetch succeeded")
	}
}

// TestClientFetchDeadline: the caller's context deadline bounds the
// fetch — a peer that stalls longer than the budget cannot hold the
// caller past it (satellite: deadline propagation into peer fetches).
func TestClientFetchDeadline(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	c := NewClient()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	var e testEntry
	_, err := c.FetchEntry(ctx, ts.URL, "k", &e)
	once.Do(func() { close(release) })
	if err == nil {
		t.Fatal("fetch against a stalled peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fetch held the caller %v past a 50ms budget", elapsed)
	}
}
