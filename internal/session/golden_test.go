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
