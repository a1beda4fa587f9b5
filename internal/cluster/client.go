package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// maxConnsPerPeer bounds connections (idle + active) to one peer. Peer
// traffic is a cache side-channel, not the serving path; a small bound
// keeps a slow peer from absorbing this replica's file descriptors.
const maxConnsPerPeer = 8

// Client is the bounded HTTP client replicas use to fetch each other's
// cache entries. Safe for concurrent use.
type Client struct {
	hc *http.Client
}

// NewClient builds a peering client with its own bounded transport.
func NewClient() *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConnsPerPeer,
		MaxIdleConnsPerHost: maxConnsPerPeer,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{hc: &http.Client{Transport: tr}}
}

// CacheKeyPath is the URL path of one peer-cache entry; the key is
// path-escaped so composite keys ("fp|alg|class") travel intact.
func CacheKeyPath(key string) string {
	return "/internal/cache/" + url.PathEscape(key)
}

// FetchEntry asks peer for its cached entry under key (GET
// /internal/cache/{key}) and decodes the JSON body into `into`.
// A 404 is a clean miss (false, nil); any other failure — transport,
// unexpected status, undecodable body — is an error. The context bounds
// the whole exchange; the service's peer tier always gives it a deadline
// (service.Options.PeerTimeout).
// The returned entry is whatever the peer claims: callers must verify it
// (certificate and all) before trusting or caching anything.
func (c *Client) FetchEntry(ctx context.Context, peer, key string, into any) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+CacheKeyPath(key), nil)
	if err != nil {
		return false, fmt.Errorf("cluster: fetch %s: %w", peer, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("cluster: fetch %s: %w", peer, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("cluster: fetch %s: unexpected status %d", peer, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(into); err != nil {
		return false, fmt.Errorf("cluster: fetch %s: decoding entry: %w", peer, err)
	}
	return true, nil
}
