package session

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// singleProcSessionDigest is the SHA-256 over every per-event report
// (Elapsed zeroed) and post-event snapshot of the seeded SINGLEPROC
// scripts replayed by TestSingleProcSessionGolden. It pins SINGLEPROC
// patching (placement and tie-breaks included) and adoption byte for
// byte; MaxWeight 1 makes load ties common, so a lost tie-break shows.
const singleProcSessionDigest = "c013c7b8520052c076b5e315f78bf0cc43ef11bfeb7feacac61528bb212da2d3"

// TestSingleProcSessionGolden replays seeds 1–8 × MaxWeight {1, 3, 30} ×
// λ {0, 1} on 4 processors at one worker and checks the digest.
func TestSingleProcSessionGolden(t *testing.T) {
	sum := sha256.New()
	lines := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, maxW := range []int64{1, 3, 30} {
			for _, lambda := range []float64{0, 1} {
				s, err := New(Options{Procs: 4, Lambda: lambda, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				events := GenerateScript(ScriptOptions{Seed: seed, Events: 60, Procs: 4, MaxWeight: maxW})
				for i, ev := range events {
					rep, err := s.Apply(context.Background(), ev)
					if err != nil {
						t.Fatalf("seed %d maxW %d λ %v event %d: %v", seed, maxW, lambda, i, err)
					}
					rep.Elapsed = 0
					for _, v := range []any{rep, s.Snapshot()} {
						b, err := json.Marshal(v)
						if err != nil {
							t.Fatal(err)
						}
						sum.Write(append(b, '\n'))
						lines++
					}
				}
				s.Close()
			}
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != singleProcSessionDigest {
		t.Fatalf("SINGLEPROC session digest over %d lines = %s, want %s", lines, got, singleProcSessionDigest)
	}
}

// multiProcSessionDigest is the SHA-256 that TestMultiProcSessionGolden
// computes over 40 seeded 200-event MULTIPROC scripts with the perfbench
// session workload's settings. It pins, per event, the report (Elapsed
// zeroed), every pushed incumbent (Elapsed zeroed), the re-solve's
// certificate and the post-event snapshot.
const multiProcSessionDigest = "1117e34f4eede1897665bfe9bad81f3d9f4de987d7bd2733ce576e9fa3d5d2e7"

// TestMultiProcSessionGolden replays GenerateScript seeds 0–39 (200
// events, 4 processors, MULTIPROC, weights ≤ 30) into sessions with
// λ = 1, one worker and the cold comparison, and checks the digest.
func TestMultiProcSessionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 8,000 session events")
	}
	sum := sha256.New()
	write := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum.Write(append(b, '\n'))
	}
	events, incumbents := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		s, err := New(Options{Procs: 4, Multi: true, Lambda: 1, CompareCold: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pushes, cancel := s.Subscribe(1 << 12)
		script := GenerateScript(ScriptOptions{Seed: seed, Events: 200, Procs: 4, Multi: true, MaxWeight: 30})
		for i, ev := range script {
			rep, err := s.Apply(context.Background(), ev)
			if err != nil {
				t.Fatalf("seed %d event %d: %v", seed, i, err)
			}
			for len(pushes) > 0 {
				p := <-pushes
				if p.Kind == "incumbent" {
					inc := *p.Incumbent
					inc.Elapsed = 0
					write(inc)
					incumbents++
				}
			}
			rep.Elapsed = 0
			write(rep)
			if rep.Report != nil {
				write(rep.Report.Certificate)
			}
			write(s.Snapshot())
			events++
		}
		cancel()
		s.Close()
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != multiProcSessionDigest {
		t.Fatalf("MULTIPROC session digest over %d events and %d incumbents = %s, want %s", events, incumbents, got, multiProcSessionDigest)
	}
}
