// Package cluster is the shared-nothing scale-out layer: the ownership
// ring over a static fleet of semiserve replicas, and the bounded HTTP
// client replicas use to fetch each other's cache entries.
//
// Every replica answers every request it receives itself. The ring
// decides one thing: which replica owns an instance fingerprint, and so
// which replica's cache a non-owner asks (GET /internal/cache/{key})
// after its own memory and disk tiers miss.
//
// Ownership is rendezvous (highest-random-weight) hashing: every replica
// independently scores each peer against an instance fingerprint
// (SHA-256 over peer‖fingerprint) and the highest score owns the key.
// Because scores are pairwise-independent, the ring needs no coordination
// — any two processes configured with the same peer list agree on every
// owner — and removing one peer remaps exactly that peer's keys (~1/N of
// the space) while every other key keeps its owner. Canonical
// fingerprinting makes ownership semantic: isomorphic instances hash
// equal, so they share one owner and one verified cache entry no matter
// which replica a client happened to ask.
//
// The package is deliberately service-agnostic: it knows URLs, keys and
// JSON payloads, not solve results. Verification of anything a peer
// returns is the caller's job (internal/service re-verifies certificates
// with cert.Verify before admitting a peer entry to any cache tier).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// Ring is an immutable rendezvous-hash view of a static peer list. The
// zero value is unusable; build one with NewRing. All methods are safe
// for concurrent use (the ring is read-only after construction).
type Ring struct {
	self  string
	peers []string // normalized, deduplicated, sorted
}

// NewRing builds a ring over the given peer base URLs. self is this
// process's own base URL; it is added to the peer list if absent, so
// "-peers lists everyone else" and "-peers lists the whole fleet" both
// work. Peers may be bare host:port (http:// is assumed) or full URLs;
// trailing slashes and case differences in the host are normalized away
// so the fleet agrees on peer identity byte-for-byte.
func NewRing(self string, peers []string) (*Ring, error) {
	nself, err := NormalizePeer(self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self %q: %w", self, err)
	}
	seen := map[string]bool{nself: true}
	all := []string{nself}
	for _, p := range peers {
		np, err := NormalizePeer(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		if !seen[np] {
			seen[np] = true
			all = append(all, np)
		}
	}
	sort.Strings(all)
	return &Ring{self: nself, peers: all}, nil
}

// NormalizePeer canonicalizes one peer address: bare host:port gains an
// http:// scheme, the host is lowercased, and any trailing slash is
// dropped. The result is the exact string the ring hashes, so two
// processes spelling the same peer differently still agree on ownership.
func NormalizePeer(p string) (string, error) {
	p = strings.TrimSpace(p)
	if p == "" {
		return "", fmt.Errorf("empty address")
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	u, err := url.Parse(p)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("unsupported scheme %q", u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("missing host")
	}
	u.Host = strings.ToLower(u.Host)
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return u.String(), nil
}

// Self returns this process's own normalized base URL.
func (r *Ring) Self() string { return r.self }

// Size returns the number of replicas in the ring.
func (r *Ring) Size() int { return len(r.peers) }

// Owner returns the peer that owns key (an instance fingerprint):
// the highest rendezvous score, with the lexicographically smallest peer
// breaking exact score ties so ownership is total and deterministic.
func (r *Ring) Owner(key string) string {
	var best string
	var bestScore uint64
	for _, p := range r.peers {
		s := score(p, key)
		if best == "" || s > bestScore || (s == bestScore && p < best) {
			best, bestScore = p, s
		}
	}
	return best
}

// score is the rendezvous weight of peer for key: the first 8 bytes of
// SHA-256(peer ‖ NUL ‖ key) as a big-endian uint64. SHA-256 (rather than
// a fast non-cryptographic hash) keeps the distribution uniform even for
// adversarially chosen keys, and one hash per peer per request is noise
// next to canonicalizing the instance.
func score(peer, key string) uint64 {
	h := sha256.New()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0])[:8])
}
