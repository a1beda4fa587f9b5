package main

import (
	"context"
	"net/http"
	"strings"

	"semimatch/internal/cluster"
	"semimatch/internal/service"
)

// peerAdapter implements service.PeerCache over the cluster ring and
// HTTP client: ownership questions go to the ring, entry fetches to the
// owning replica's GET /internal/cache/{key}. The service layer re-
// verifies everything that comes back; this adapter only moves bytes.
type peerAdapter struct {
	ring   *cluster.Ring
	client *cluster.Client
}

func (p *peerAdapter) Owner(fp string) (peer string, self bool) {
	owner := p.ring.Owner(fp)
	return owner, owner == p.ring.Self()
}

func (p *peerAdapter) Fetch(ctx context.Context, peer, key string) (*service.PeerEntry, bool, error) {
	var e service.PeerEntry
	ok, err := p.client.FetchEntry(ctx, peer, key, &e)
	if err != nil || !ok {
		return nil, false, err
	}
	return &e, true, nil
}

// handlePeerCache answers GET /internal/cache/{key}: the entry under the
// (path-escaped) cache key from this replica's memory or disk tier, 404
// on a miss. Entries are served raw — integrity-checked but not
// re-verified — because the requesting replica runs cert.Verify on its
// own side before admission; nothing a replica says here is trusted.
func (s *server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/internal/cache/")
	if key == "" || strings.Contains(key, "/") {
		writeError(w, http.StatusBadRequest, "want /internal/cache/{key}")
		return
	}
	entry, ok := s.svc.PeerLookup(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no entry")
		return
	}
	writeJSON(w, http.StatusOK, entry)
}
