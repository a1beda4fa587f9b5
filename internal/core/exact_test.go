package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// exactUnitDigest is the SHA-256 that TestExactUnitDigest computes over
// ExactUnit's optimum and assignment on 600 seeded unit graphs. Counting
// D up from 1, the search ExactUnit ran by default before it bisected,
// gives the same digest: both return the capacitated matcher's assignment
// at the optimum.
const exactUnitDigest = "998b0f8b10083222c69731047e73b7d4a4a49c8b9f477d5c8693a8caa8596ac8"

// TestExactUnitDigest pins ExactUnit's answers, assignments included, on
// graph i = 0..599 drawn from seed i: 1–300 tasks on 1–30 processors,
// each task eligible on 1–3 of them.
func TestExactUnitDigest(t *testing.T) {
	sum := sha256.New()
	for i := int64(0); i < 600; i++ {
		rng := rand.New(rand.NewSource(i))
		g := randomUnitGraph(rng, 1+rng.Intn(300), 1+rng.Intn(30), 3)
		a, d, err := ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		binary.Write(sum, binary.LittleEndian, d)
		binary.Write(sum, binary.LittleEndian, []int32(a))
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != exactUnitDigest {
		t.Fatalf("ExactUnit digest over 600 graphs = %s, want %s", got, exactUnitDigest)
	}
}

// stopAfter is a context that reports cancellation from the (n+1)-th
// call of Err on, so a test can end a search after any number of probes.
type stopAfter struct {
	context.Context
	n int
}

func (c *stopAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestExactUnitStopsBetweenProbes: ExactUnit stopped before its k-th
// probe returns a valid assignment with its makespan and the context's
// error; the makespans do not grow with k and reach the optimum once the
// search runs to the end. Stopped before the first probe, it returns
// sorted-greedy's assignment.
func TestExactUnitStopsBetweenProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		g := randomUnitGraph(rng, 50+rng.Intn(200), 2+rng.Intn(10), 3)
		_, opt, err := ExactUnit(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(-1)
		for k := 0; ; k++ {
			a, d, err := ExactUnit(&stopAfter{context.Background(), k}, g)
			if verr := ValidateAssignment(g, a); verr != nil {
				t.Fatalf("trial %d, stopped before probe %d: %v", trial, k, verr)
			}
			if m := Makespan(g, a); m != d || m < opt || (prev >= 0 && m > prev) {
				t.Fatalf("trial %d, stopped before probe %d: makespan %d, reported %d, optimum %d, previous %d", trial, k, m, d, opt, prev)
			}
			if k == 0 && !slices.Equal(a, SortedGreedy(g)) {
				t.Fatalf("trial %d: stopped before any probe, the assignment is not sorted-greedy's", trial)
			}
			if err == nil {
				if d != opt {
					t.Fatalf("trial %d: finished with D=%d, optimum %d", trial, d, opt)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d, stopped before probe %d: %v", trial, k, err)
			}
			prev = d
		}
	}
}
