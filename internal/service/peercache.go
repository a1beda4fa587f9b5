package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"semimatch/internal/cert"
)

// DefaultPeerTimeout caps one peer-cache fetch when Options.PeerTimeout
// is zero. It is an upper bound, not the usual cost: the fetch context is
// further tightened to half the request's remaining deadline, so a slow
// peer can never hold a coalesced group past the caller's budget — the
// other half is reserved for the local fallback solve.
const DefaultPeerTimeout = 2 * time.Second

// PeerEntry is the durable form of one cache entry: the wire form
// exchanged between replicas (GET /internal/cache/{key}) and the disk
// tier's file payload. The key echo detects entries served or stored
// under the wrong name, and the certificate travels with the schedule so
// the reader can re-verify everything before admission (admitEntry) — no
// replica or restarted process ever trusts another's arithmetic. What
// admission derives (makespan, loads, lower bound, optimality) is not
// stored; earlier entries that carry those keys still decode, and the
// keys are ignored. Truncated results never become entries.
type PeerEntry struct {
	Key         string            `json:"key"`
	Kind        string            `json:"kind"`
	Fingerprint string            `json:"fingerprint"`
	Algorithm   string            `json:"algorithm"`
	Assignment  []int32           `json:"assignment"`
	Certificate *cert.Certificate `json:"certificate"`
}

// PeerCache is the pluggable peering tier behind the memory and disk
// caches. The production implementation (cmd/semiserve) wraps an
// internal/cluster ring and HTTP client; tests substitute fakes.
// Implementations must be safe for concurrent use.
type PeerCache interface {
	// Owner maps an instance fingerprint to the replica that owns it,
	// reporting self=true when this process is the owner (in which case
	// there is no one better to ask and the tier is skipped).
	Owner(fingerprint string) (peer string, self bool)
	// Fetch asks peer for its entry under the full cache key. A clean
	// miss is (nil, false, nil); errors cover transport failures,
	// unexpected statuses and undecodable bodies. The context carries the
	// per-fetch deadline and must bound the whole exchange.
	Fetch(ctx context.Context, peer, key string) (*PeerEntry, bool, error)
}

// peerFetch is the leader's peer-tier lookup: resolve the owning replica,
// fetch its entry under a deadline derived from the request's own budget,
// and admit the entry only after full re-verification. Every failure mode
// degrades to (nil, false) — the leader falls through to a fresh local
// solve — so peering can only ever save work, never lose a request.
func (s *Service) peerFetch(ctx context.Context, req *request, key string) (*Result, bool) {
	pc := s.opts.Peers
	if pc == nil {
		return nil, false
	}
	peer, self := pc.Owner(req.fp)
	if self || peer == "" {
		return nil, false
	}
	ps := req.trace.StartChild("peer-fetch")
	defer ps.End()
	ps.SetAttr("peer", peer)
	pctx, cancel := s.peerContext(ctx)
	defer cancel()
	entry, ok, err := pc.Fetch(pctx, peer, key)
	if err != nil {
		s.peerErrors.Add(1)
		ps.SetAttr("result", "error")
		return nil, false
	}
	if !ok {
		s.peerMisses.Add(1)
		ps.SetAttr("result", "miss")
		return nil, false
	}
	res, err := s.admitEntry(req, key, entry)
	if err != nil {
		// A peer handing back an entry that does not verify is indis-
		// tinguishable from tampering; the entry is dropped on the floor
		// and never reaches any cache tier.
		s.peerVerifyFailures.Add(1)
		ps.SetAttr("result", "rejected")
		return nil, false
	}
	res.fromPeer = true
	s.peerHits.Add(1)
	ps.SetAttr("result", "hit")
	return res, true
}

// peerContext derives the per-fetch deadline: PeerTimeout (or the
// default), tightened to half the request's remaining budget so the
// fallback solve keeps the other half. The child context can therefore
// never outlive the caller's own deadline.
func (s *Service) peerContext(ctx context.Context) (context.Context, context.CancelFunc) {
	budget := s.opts.PeerTimeout
	if budget <= 0 {
		budget = DefaultPeerTimeout
	}
	if d, ok := ctx.Deadline(); ok {
		if half := time.Until(d) / 2; half < budget {
			budget = half
		}
	}
	return context.WithTimeout(ctx, budget)
}

// admitEntry decides whether a cache entry read from outside this
// process — a disk file or a peer's wire entry — may answer req. Its
// shape must match the request, its certificate must certify the very
// schedule it ships, and cert.Verify must independently re-prove the
// claims against req's own canonical instance. Everything else is then
// recomputed locally rather than trusted — Optimal and LowerBound come
// from certify, as for a fresh solve, not from the entry — so a lying
// entry can at worst be rejected, never believed. A certificate that
// fails verification is also counted in Stats.VerifyFailures.
func (s *Service) admitEntry(req *request, key string, e *PeerEntry) (*Result, error) {
	if e == nil {
		return nil, errors.New("service: cache entry: empty")
	}
	if e.Key != key {
		return nil, fmt.Errorf("service: cache entry key %q, want %q", e.Key, key)
	}
	if e.Kind != req.kind {
		return nil, fmt.Errorf("service: cache entry kind %q, want %q", e.Kind, req.kind)
	}
	c := e.Certificate
	if c == nil {
		return nil, errors.New("service: cache entry has no certificate")
	}
	if !slices.Equal(c.Assignment, e.Assignment) {
		return nil, errors.New("service: cache entry assignment differs from its certificate")
	}
	res := &Result{
		Kind:        req.kind,
		Fingerprint: req.fp,
		Algorithm:   e.Algorithm,
		Assignment:  e.Assignment,
		Certificate: c,
	}
	if err := req.certify(res); err != nil {
		s.verifyFailures.Add(1)
		return nil, err
	}
	if res.Assignment == nil {
		res.Assignment = []int32{}
	}
	// Recompute what the certificate proves correct; trust nothing else.
	res.Makespan, res.Loads = req.problem().MakespanLoads(res.Assignment)
	return res, nil
}

// PeerLookup answers a peer's GET /internal/cache/{key}: the entry under
// key from the memory tier, falling back to a raw disk read (integrity-
// checked but not re-verified — the requesting replica verifies on its
// own side, so spending a cert.Verify here would be redundant work on
// the serving replica's hot path). Served entries are counted in
// Stats.PeerServed.
func (s *Service) PeerLookup(key string) (*PeerEntry, bool) {
	var e *PeerEntry
	if res, ok := s.cache.peek(key); ok {
		e = entryOf(key, res)
	} else if s.disk != nil {
		e, _ = s.disk.getRaw(key)
	}
	if e == nil {
		return nil, false
	}
	s.peerServed.Add(1)
	return e, true
}

// entryOf is res's durable form under key.
func entryOf(key string, res *Result) *PeerEntry {
	return &PeerEntry{
		Key:         key,
		Kind:        res.Kind,
		Fingerprint: res.Fingerprint,
		Algorithm:   res.Algorithm,
		Assignment:  res.Assignment,
		Certificate: res.Certificate,
	}
}
