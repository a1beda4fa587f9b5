package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"semimatch/internal/cert"
)

// fuzzEntry sets up the two cache-entry fuzz targets: a service with a
// disk tier, and the request for testHyper under EVG with its cache key.
// The corpus is seeded with the genuine entry another replica holds for
// that key, as a full entry file and as its JSON payload, and with the
// payload flipped to claim optimality.
func fuzzEntry(f *testing.F) (s *Service, req *request, key string) {
	a := New(Options{CacheDir: f.TempDir()})
	res, err := a.Solve(context.Background(), testHyper(f), "EVG")
	if err != nil {
		f.Fatal(err)
	}
	key = res.Fingerprint + "|" + res.Algorithm + "|inf"
	file, err := os.ReadFile(a.disk.path(key))
	if err != nil {
		f.Fatal(err)
	}
	e, ok := a.PeerLookup(key)
	if !ok {
		f.Fatalf("no entry under %q", key)
	}
	payload, err := json.Marshal(e)
	if err != nil {
		f.Fatal(err)
	}
	s = New(Options{CacheDir: f.TempDir()})
	if req, err = s.newRequest(testHyper(f), "EVG"); err != nil {
		f.Fatal(err)
	}
	if got := req.fp + "|" + req.alg + "|inf"; got != key {
		f.Fatalf("request key %q, entry key %q", got, key)
	}
	if _, err := s.admitEntry(req, key, e); err != nil {
		f.Fatalf("genuine entry rejected: %v", err)
	}
	f.Add(file)
	f.Add(payload)
	lie := *e
	lie.Optimal = true
	if b, err := json.Marshal(&lie); err == nil {
		f.Add(b)
	}
	return s, req, key
}

// checkAdmitted asserts what any entry served from outside the process
// must satisfy: a certificate that verifies against the request's own
// instance, for the schedule actually served, and an optimality claim
// only where the verified tier supports one.
func checkAdmitted(t *testing.T, req *request, res *Result) {
	t.Helper()
	tier, err := cert.Verify(req.instance(), res.Certificate)
	if err != nil {
		t.Fatalf("admitted entry does not verify: %v", err)
	}
	if !slices.Equal(res.Assignment, res.Certificate.Assignment) {
		t.Fatal("admitted schedule differs from its certificate's")
	}
	if m, _ := req.problem().MakespanLoads(res.Assignment); m != res.Makespan {
		t.Fatalf("admitted makespan %d, schedule yields %d", res.Makespan, m)
	}
	if res.Trust != tier || (res.Optimal && tier < cert.TierAttested) {
		t.Fatalf("admitted optimal=%v trust=%s, certificate verifies at %s", res.Optimal, res.Trust, tier)
	}
}

// FuzzDiskEntry writes arbitrary bytes as the entry file under a fixed
// instance's key and reads it back through the disk tier with the
// service's admission check. Inputs that do not start with the format
// header are treated as a payload and given a valid header and checksum,
// so mutations reach the JSON decoder and the certificate check instead
// of stopping at the checksum.
func FuzzDiskEntry(f *testing.F) {
	s, req, key := fuzzEntry(f)
	path := s.disk.path(key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte(diskMagic+"\n")) {
			sum := sha256.Sum256(data)
			data = append([]byte(diskMagic+"\n"+hex.EncodeToString(sum[:])+"\n"), data...)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := s.disk.get(key, func(e *PeerEntry) (*Result, error) { return s.admitEntry(req, key, e) })
		if ok {
			checkAdmitted(t, req, res)
		}
	})
}

// FuzzPeerEntry decodes arbitrary bytes into a PeerEntry the way
// cluster.Client.FetchEntry decodes a peer's response body, and passes it
// to the admission check a peer-tier hit goes through.
func FuzzPeerEntry(f *testing.F) {
	s, req, key := fuzzEntry(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var e PeerEntry
		if json.NewDecoder(bytes.NewReader(data)).Decode(&e) != nil {
			return
		}
		if res, err := s.admitEntry(req, key, &e); err == nil {
			checkAdmitted(t, req, res)
		}
	})
}
