package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"semimatch/internal/cert"
	"semimatch/internal/core"
)

// entryFile returns the single .entry file in dir, failing the test if
// there is not exactly one.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("found %d entry files in %s, want 1", len(names), dir)
	}
	return names[0]
}

// TestDiskTierSurvivesRestart is the durability acceptance test: a result
// solved by one Service is served — Cached, certificate and all — by a
// brand-new Service on the same directory, even for an isomorphic (not
// byte-identical) restatement of the instance.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := New(Options{CacheDir: dir})
	r1, err := s1.Solve(ctx, testHyper(t), "")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r1.Optimal || r1.Makespan != 5 {
		t.Fatalf("seed solve: %+v", r1)
	}
	if r1.Certificate == nil || r1.Certificate.Witness.Kind == cert.WitnessNone {
		t.Fatalf("optimal result carries no optimality witness: %+v", r1.Certificate)
	}
	if r1.Trust < cert.TierAttested {
		t.Fatalf("fresh optimal result verified only at %s", r1.Trust)
	}
	if st := s1.Stats(); st.DiskWrites != 1 || st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Fatalf("after seed solve: %+v", st)
	}
	entryFile(t, dir) // exactly one persisted entry

	// "Restart": a fresh Service, empty memory LRU, same directory. The
	// request is an edge-reordered isomorph, so only the canonical
	// fingerprint — not request bytes — can find the entry.
	s2 := New(Options{CacheDir: dir})
	iso := isomorphTestHyper(t)
	r2, err := s2.Solve(ctx, iso, "")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("restarted service re-solved instead of serving the disk entry")
	}
	if r2.Makespan != 5 || !r2.Optimal {
		t.Fatalf("disk-served result: %+v", r2)
	}
	if err := core.ValidateHyperAssignment(iso, core.HyperAssignment(r2.Assignment)); err != nil {
		t.Fatalf("disk-served assignment invalid on the requester's instance: %v", err)
	}
	if m := core.HyperMakespan(iso, core.HyperAssignment(r2.Assignment)); m != 5 {
		t.Fatalf("disk-served assignment yields makespan %d, want 5", m)
	}

	// The served certificate must verify independently against the
	// requester's own instance and numbering.
	if r2.Certificate == nil {
		t.Fatal("disk-served result carries no certificate")
	}
	tier, err := cert.Verify(iso, r2.Certificate)
	if err != nil {
		t.Fatalf("disk-served certificate rejected against requester's instance: %v", err)
	}
	if tier < cert.TierAttested || r2.Trust < cert.TierAttested {
		t.Fatalf("disk-served optimal result: verify tier %s, result trust %s", tier, r2.Trust)
	}

	st := s2.Stats()
	if st.DiskHits != 1 || st.DiskWrites != 0 || st.Solves != 0 {
		t.Fatalf("after restart hit: %+v", st)
	}

	// The disk hit was promoted to the memory LRU: a repeat request is a
	// memory hit and does not touch the disk again.
	r3, err := s2.Solve(ctx, iso, "")
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached {
		t.Fatal("repeat request missed both cache tiers")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.CacheHits != 1 {
		t.Fatalf("repeat request went back to disk: %+v", st)
	}
}

// TestDiskTierReapsGarbledEntries: a corrupted, truncated, or
// wrong-version entry file is skipped AND removed on the next lookup, and
// the request is answered by a correct fresh solve — corruption degrades
// to a cache miss, never to a wrong answer or a poisoned store.
func TestDiskTierReapsGarbledEntries(t *testing.T) {
	garble := map[string]func([]byte) []byte{
		"checksum-mismatch": func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[len(out)-1] ^= 0xff
			return out
		},
		"truncated": func(data []byte) []byte {
			return append([]byte(nil), data[:len(data)/3]...)
		},
		"wrong-version": func(data []byte) []byte {
			return bytes.Replace(data, []byte(diskMagic), []byte("semimatch-cache/v0"), 1)
		},
	}
	for name, fn := range garble {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			s1 := New(Options{CacheDir: dir})
			r1, err := s1.Solve(ctx, testHyper(t), "EVG")
			if err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, fn(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := New(Options{CacheDir: dir})
			r2, err := s2.Solve(ctx, testHyper(t), "EVG")
			if err != nil {
				t.Fatal(err)
			}
			if r2.Cached {
				t.Fatal("garbled entry was served")
			}
			if r2.Makespan != r1.Makespan {
				t.Fatalf("fresh solve makespan %d, original %d", r2.Makespan, r1.Makespan)
			}
			st := s2.Stats()
			if st.DiskHits != 0 || st.DiskMisses != 1 || st.DiskReaped != 1 {
				t.Fatalf("garbled entry not reaped as a miss: %+v", st)
			}
			// The fresh result was re-persisted over the reaped entry.
			if st.DiskWrites != 1 {
				t.Fatalf("fresh solve not re-persisted: %+v", st)
			}
			entryFile(t, dir)
		})
	}
}

// rewriteEntry re-encodes a tampered entry with a fresh, valid
// checksum — simulating an attacker (or bit-rot plus coincidence) that
// can rewrite the file wholesale. Integrity checks pass; only the
// certificate re-verification can catch it.
func rewriteEntry(t *testing.T, path string, tamper func(*PeerEntry)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rest, ok := bytes.CutPrefix(data, []byte(diskMagic+"\n"))
	if !ok {
		t.Fatal("entry missing version header")
	}
	_, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		t.Fatal("entry truncated")
	}
	var e PeerEntry
	if err := json.Unmarshal(payload, &e); err != nil {
		t.Fatal(err)
	}
	tamper(&e)
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	var buf bytes.Buffer
	buf.WriteString(diskMagic + "\n" + hex.EncodeToString(sum[:]) + "\n")
	buf.Write(out)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskTierRejectsTamperedEntry: an entry whose bytes are internally
// consistent but whose certificate no longer proves its claims is
// rejected by re-verification, counted in VerifyFailures, and reaped.
func TestDiskTierRejectsTamperedEntry(t *testing.T) {
	t.Run("forged-certificate", func(t *testing.T) {
		dir := t.TempDir()
		ctx := context.Background()
		s1 := New(Options{CacheDir: dir})
		if _, err := s1.Solve(ctx, testHyper(t), ""); err != nil {
			t.Fatal(err)
		}
		// Claim a makespan the assignment does not achieve.
		rewriteEntry(t, entryFile(t, dir), func(e *PeerEntry) {
			e.Certificate.Makespan--
			e.Certificate.LowerBound--
		})

		s2 := New(Options{CacheDir: dir})
		r, err := s2.Solve(ctx, testHyper(t), "")
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached || r.Makespan != 5 || !r.Optimal {
			t.Fatalf("tampered entry affected the answer: %+v", r)
		}
		st := s2.Stats()
		if st.VerifyFailures != 1 {
			t.Fatalf("verify_failures = %d, want 1", st.VerifyFailures)
		}
		if st.DiskHits != 0 || st.DiskReaped != 1 {
			t.Fatalf("tampered entry not reaped: %+v", st)
		}
	})

	t.Run("assignment-certificate-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		ctx := context.Background()
		s1 := New(Options{CacheDir: dir})
		if _, err := s1.Solve(ctx, testHyper(t), ""); err != nil {
			t.Fatal(err)
		}
		// A valid certificate stapled to a different (worse) schedule.
		rewriteEntry(t, entryFile(t, dir), func(e *PeerEntry) {
			e.Assignment = append([]int32(nil), e.Assignment...)
			e.Assignment[0]++
		})

		s2 := New(Options{CacheDir: dir})
		r, err := s2.Solve(ctx, testHyper(t), "")
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached || r.Makespan != 5 {
			t.Fatalf("mismatched entry affected the answer: %+v", r)
		}
		if st := s2.Stats(); st.DiskHits != 0 || st.DiskReaped != 1 {
			t.Fatalf("mismatched entry not reaped: %+v", st)
		}
	})
}

// TestFreshVerifyFailureBarredFromCaches: a solver that lies — claiming
// optimality without a certificate that withstands verification — has its
// result degraded in place and barred from both cache tiers, and the lie
// is counted.
func TestFreshVerifyFailureBarredFromCaches(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{CacheDir: dir})
	var calls atomic.Int32
	s.solveFn = func(ctx context.Context, req *request) (*Result, error) {
		calls.Add(1)
		return &Result{
			Kind:       req.kind,
			Makespan:   1, // impossibly good
			Assignment: []int32{0, 0, 0},
			Optimal:    true, // claimed, not proven: no certificate
		}, nil
	}
	h := testHyper(t)
	for i := 0; i < 2; i++ {
		r, err := s.Solve(context.Background(), h, "SGH")
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached {
			t.Fatalf("solve %d: unverified result served from cache", i)
		}
		if r.Optimal || r.Trust != cert.TierHeuristic {
			t.Fatalf("solve %d: lie not degraded: optimal=%v trust=%s", i, r.Optimal, r.Trust)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("solver called %d times, want 2 (unverified results must not be cached)", got)
	}
	st := s.Stats()
	if st.VerifyFailures != 2 {
		t.Fatalf("verify_failures = %d, want 2", st.VerifyFailures)
	}
	if st.CacheEntries != 0 || st.DiskWrites != 0 {
		t.Fatalf("unverified result reached a cache tier: %+v", st)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.entry")); len(names) != 0 {
		t.Fatalf("unverified result persisted: %v", names)
	}
}
