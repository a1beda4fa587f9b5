package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"semimatch/internal/cert"
	"semimatch/internal/core"
)

// fakePeers is a scriptable PeerCache: a fixed owner answer and a Fetch
// callback, with call accounting.
type fakePeers struct {
	owner   string
	self    bool
	fetch   func(ctx context.Context, peer, key string) (*PeerEntry, bool, error)
	fetches atomic.Int32
}

func (f *fakePeers) Owner(fp string) (string, bool) { return f.owner, f.self }

func (f *fakePeers) Fetch(ctx context.Context, peer, key string) (*PeerEntry, bool, error) {
	f.fetches.Add(1)
	if f.fetch == nil {
		return nil, false, nil
	}
	return f.fetch(ctx, peer, key)
}

// solveOnReplicaA runs one solve on a standalone service and returns the
// peer entry its cache would serve — the canonical way tests obtain a
// genuine, verifiable wire entry "from replica A".
func solveOnReplicaA(t *testing.T, alg string) (*PeerEntry, string, *Result) {
	t.Helper()
	a := New(Options{})
	res, err := a.Solve(context.Background(), testHyper(t), alg)
	if err != nil {
		t.Fatal(err)
	}
	key := res.Fingerprint + "|" + res.Algorithm + "|inf"
	entry, ok := a.PeerLookup(key)
	if !ok {
		t.Fatalf("replica A has no cache entry under %q", key)
	}
	if st := a.Stats(); st.PeerServed != 1 {
		t.Fatalf("PeerServed = %d, want 1", st.PeerServed)
	}
	return entry, key, res
}

// TestPeerVerifiedAdoption is the acceptance-criterion path: an entry
// solved on replica A answers an isomorphic request on replica B — but
// only after cert.Verify passes on B — and is then admitted to B's own
// memory and disk tiers.
func TestPeerVerifiedAdoption(t *testing.T) {
	entry, _, ra := solveOnReplicaA(t, "EVG")

	peers := &fakePeers{
		owner: "http://replica-a:8080",
		fetch: func(ctx context.Context, peer, key string) (*PeerEntry, bool, error) {
			return entry, true, nil
		},
	}
	b := New(Options{Peers: peers, CacheDir: t.TempDir()})
	h2 := isomorphTestHyper(t)
	rb, err := b.Solve(context.Background(), h2, "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Tier != "peer" || !rb.Cached {
		t.Fatalf("Tier = %q, Cached = %v, want peer/true", rb.Tier, rb.Cached)
	}
	if rb.Makespan != ra.Makespan {
		t.Fatalf("peer-served makespan %d, replica A solved %d", rb.Makespan, ra.Makespan)
	}
	// The adopted schedule must be valid in B's requester numbering.
	if err := core.ValidateHyperAssignment(h2, core.HyperAssignment(rb.Assignment)); err != nil {
		t.Fatalf("peer-served assignment invalid on B's instance: %v", err)
	}
	st := b.Stats()
	if st.PeerHits != 1 || st.Solves != 0 {
		t.Fatalf("peer_hits=%d solves=%d, want 1/0", st.PeerHits, st.Solves)
	}
	if st.PeerVerifyFailures != 0 || st.VerifyFailures != 0 {
		t.Fatalf("verify failures on a genuine entry: %+v", st)
	}
	if st.DiskWrites != 1 {
		t.Fatalf("disk_writes = %d, want the adopted entry persisted", st.DiskWrites)
	}

	// The adopted entry now lives in B's memory tier: a repeat request is
	// a local hit, no second fetch.
	rb2, err := b.Solve(context.Background(), h2, "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if rb2.Tier != "memory" {
		t.Fatalf("repeat Tier = %q, want memory", rb2.Tier)
	}
	if got := peers.fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1", got)
	}
}

// TestPeerLyingCertificateRejected: a peer entry whose certificate
// claims a better makespan than its schedule achieves is rejected,
// counted in both VerifyFailures and PeerVerifyFailures, and never
// enters the memory or disk tiers — the leader falls back to a fresh
// local solve.
func TestPeerLyingCertificateRejected(t *testing.T) {
	entry, key, ra := solveOnReplicaA(t, "EVG")

	// Tamper coherently: entry and certificate agree with each other
	// (the shape checks pass) but lie about the schedule's makespan.
	lie := *entry
	c := *entry.Certificate
	c.Makespan--
	c.LowerBound = c.Makespan
	lie.Certificate = &c
	lie.Makespan--

	peers := &fakePeers{
		owner: "http://replica-a:8080",
		fetch: func(ctx context.Context, peer, key string) (*PeerEntry, bool, error) {
			return &lie, true, nil
		},
	}
	b := New(Options{Peers: peers, CacheDir: t.TempDir()})
	rb, err := b.Solve(context.Background(), isomorphTestHyper(t), "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Tier != "none" || rb.Cached {
		t.Fatalf("Tier = %q, Cached = %v, want a fresh fallback solve", rb.Tier, rb.Cached)
	}
	if rb.Makespan != ra.Makespan {
		t.Fatalf("fallback makespan %d, want %d", rb.Makespan, ra.Makespan)
	}
	st := b.Stats()
	if st.PeerVerifyFailures != 1 || st.VerifyFailures != 1 {
		t.Fatalf("peer_verify_failures=%d verify_failures=%d, want 1/1",
			st.PeerVerifyFailures, st.VerifyFailures)
	}
	if st.PeerHits != 0 || st.Solves != 1 {
		t.Fatalf("peer_hits=%d solves=%d, want 0/1", st.PeerHits, st.Solves)
	}
	// What B's tiers now hold under the key is its own verified solve,
	// not the lying entry.
	got, ok := b.PeerLookup(key)
	if !ok {
		t.Fatal("B's cache has no entry after the fallback solve")
	}
	if got.Makespan != ra.Makespan || got.Certificate.Makespan != ra.Makespan {
		t.Fatalf("cached makespan %d (cert %d), the lie was admitted",
			got.Makespan, got.Certificate.Makespan)
	}
}

// TestPeerShapeRejection: an entry whose certificate disagrees with the
// schedule it ships (or that answers under the wrong key) is rejected
// before cert.Verify runs — counted as a peer verify failure only.
func TestPeerShapeRejection(t *testing.T) {
	entry, _, _ := solveOnReplicaA(t, "EVG")
	mangled := *entry
	mangled.Assignment = append([]int32{}, entry.Assignment...)
	mangled.Assignment[0]++ // no longer the certificate's schedule

	peers := &fakePeers{
		owner: "http://replica-a:8080",
		fetch: func(ctx context.Context, peer, key string) (*PeerEntry, bool, error) {
			return &mangled, true, nil
		},
	}
	b := New(Options{Peers: peers})
	if _, err := b.Solve(context.Background(), isomorphTestHyper(t), "EVG"); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.PeerVerifyFailures != 1 {
		t.Fatalf("peer_verify_failures = %d, want 1", st.PeerVerifyFailures)
	}
	if st.VerifyFailures != 0 {
		t.Fatalf("verify_failures = %d; shape rejections are not certificate lies", st.VerifyFailures)
	}
}

// TestPeerFetchDeadline: the fetch context's deadline never exceeds half
// the request's remaining budget, and is capped by PeerTimeout when the
// request is unbounded — a slow peer cannot hold a coalesced group past
// the caller's deadline.
func TestPeerFetchDeadline(t *testing.T) {
	var fetchDeadline time.Time
	peers := &fakePeers{
		owner: "http://replica-a:8080",
		fetch: func(ctx context.Context, peer, key string) (*PeerEntry, bool, error) {
			fetchDeadline, _ = ctx.Deadline()
			return nil, false, nil
		},
	}
	b := New(Options{Peers: peers, PeerTimeout: 10 * time.Second})

	reqDeadline := time.Now().Add(30 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), reqDeadline)
	defer cancel()
	if _, err := b.Solve(ctx, testHyper(t), "EVG"); err != nil {
		t.Fatal(err)
	}
	if fetchDeadline.IsZero() {
		t.Fatal("peer fetch ran without a deadline")
	}
	if max := time.Now().Add(15 * time.Second); fetchDeadline.After(max) {
		t.Fatalf("fetch deadline %v exceeds half the request's remaining budget", fetchDeadline)
	}

	// Unbounded request: PeerTimeout alone caps the fetch.
	fetchDeadline = time.Time{}
	if _, err := b.Solve(context.Background(), isomorphTestHyper(t), "SGH"); err != nil {
		t.Fatal(err)
	}
	if fetchDeadline.IsZero() {
		t.Fatal("unbounded request ran the peer fetch without a deadline")
	}
	if max := time.Now().Add(11 * time.Second); fetchDeadline.After(max) {
		t.Fatalf("fetch deadline %v exceeds PeerTimeout", fetchDeadline)
	}
	if st := b.Stats(); st.PeerMisses != 2 {
		t.Fatalf("peer_misses = %d, want 2", st.PeerMisses)
	}
}

// TestPeerSelfOwnerSkipsFetch: when this replica owns the fingerprint
// there is no better replica to ask; the tier is skipped entirely.
func TestPeerSelfOwnerSkipsFetch(t *testing.T) {
	peers := &fakePeers{owner: "http://self:8080", self: true}
	b := New(Options{Peers: peers})
	r, err := b.Solve(context.Background(), testHyper(t), "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier != "none" {
		t.Fatalf("Tier = %q, want none", r.Tier)
	}
	if got := peers.fetches.Load(); got != 0 {
		t.Fatalf("fetches = %d, want 0 for a self-owned key", got)
	}
}

// TestPeerErrorFallsBack: a failing peer costs one counted error, never
// the request.
func TestPeerErrorFallsBack(t *testing.T) {
	peers := &fakePeers{
		owner: "http://replica-a:8080",
		fetch: func(ctx context.Context, peer, key string) (*PeerEntry, bool, error) {
			return nil, false, errors.New("connection refused")
		},
	}
	b := New(Options{Peers: peers})
	r, err := b.Solve(context.Background(), testHyper(t), "EVG")
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier != "none" || r.Cached {
		t.Fatalf("Tier = %q, want a fresh fallback solve", r.Tier)
	}
	if st := b.Stats(); st.PeerErrors != 1 || st.Solves != 1 {
		t.Fatalf("peer_errors=%d solves=%d, want 1/1", st.PeerErrors, st.Solves)
	}
}

// TestPeerLookupFromDisk: a restarted replica (cold memory, warm disk)
// still serves peers — getRaw integrity-checks the file but leaves
// verification to the requesting side.
func TestPeerLookupFromDisk(t *testing.T) {
	dir := t.TempDir()
	a := New(Options{CacheDir: dir})
	res, err := a.Solve(context.Background(), testHyper(t), "EVG")
	if err != nil {
		t.Fatal(err)
	}
	key := res.Fingerprint + "|" + res.Algorithm + "|inf"

	restarted := New(Options{CacheDir: dir})
	entry, ok := restarted.PeerLookup(key)
	if !ok {
		t.Fatal("restarted replica cannot serve its disk entry to a peer")
	}
	if entry.Makespan != res.Makespan || entry.Certificate == nil {
		t.Fatalf("disk-served peer entry %+v", entry)
	}
	if _, ok := restarted.PeerLookup("no-such-key"); ok {
		t.Fatal("PeerLookup invented an entry")
	}
	if st := restarted.Stats(); st.PeerServed != 1 {
		t.Fatalf("peer_served = %d, want 1", st.PeerServed)
	}
}

// TestCacheTiersDeriveOptimalFromCertificate: an entry from the disk or
// peer tier claims optimality only as far as its verified certificate
// supports. Replica A's EVG entry on testHyper is heuristic (witness
// none, makespan 5 over lower bound 4); a tier that flips only its
// "optimal" field must not get the claim served, nor admitted onward.
func TestCacheTiersDeriveOptimalFromCertificate(t *testing.T) {
	entry, key, ra := solveOnReplicaA(t, "EVG")
	if ra.Optimal || ra.Certificate.Witness.Kind != cert.WitnessNone || ra.Makespan != 5 {
		t.Fatalf("fixture drifted: optimal=%v witness=%s makespan=%d", ra.Optimal, ra.Certificate.Witness.Kind, ra.Makespan)
	}
	lie := *entry
	lie.Optimal = true

	check := func(t *testing.T, s *Service, tier string) {
		t.Helper()
		for _, want := range []string{tier, "memory"} {
			r, err := s.Solve(context.Background(), testHyper(t), "EVG")
			if err != nil {
				t.Fatal(err)
			}
			if r.Tier != want {
				t.Fatalf("Tier = %q, want %q", r.Tier, want)
			}
			if r.Optimal || r.Trust != cert.TierHeuristic {
				t.Fatalf("%s hit: optimal=%v trust=%s, want the certificate's heuristic claim", want, r.Optimal, r.Trust)
			}
		}
	}

	t.Run("peer", func(t *testing.T) {
		peers := &fakePeers{
			owner: "http://replica-a:8080",
			fetch: func(ctx context.Context, peer, k string) (*PeerEntry, bool, error) {
				return &lie, true, nil
			},
		}
		dir := t.TempDir()
		check(t, New(Options{Peers: peers, CacheDir: dir}), "peer")
		// What B persisted carries the derived flag, not the peer's.
		e, ok := New(Options{CacheDir: dir}).PeerLookup(key)
		if !ok || e.Optimal {
			t.Fatalf("persisted entry: ok=%v optimal=%v", ok, ok && e.Optimal)
		}
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := New(Options{CacheDir: dir}).Solve(context.Background(), testHyper(t), "EVG"); err != nil {
			t.Fatal(err)
		}
		rewriteEntry(t, entryFile(t, dir), func(e *PeerEntry) { e.Optimal = true })
		check(t, New(Options{CacheDir: dir}), "disk")
	})
}
