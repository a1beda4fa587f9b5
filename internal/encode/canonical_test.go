package encode

import (
	"bytes"
	"math/rand"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
)

// buildHyper assembles a hypergraph from (task, weight, procs) triples in
// the given order.
type hedge struct {
	t     int
	w     int64
	procs []int
}

func buildHyper(t *testing.T, nTasks, nProcs int, edges []hedge) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(nTasks, nProcs)
	for _, e := range edges {
		b.AddEdge(e.t, e.procs, e.w)
	}
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

// TestWriteHypergraphDeterministic: writing the same instance twice yields
// byte-identical text — the property the fingerprint hashes rely on.
func TestWriteHypergraphDeterministic(t *testing.T) {
	h := buildHyper(t, 3, 4, []hedge{
		{0, 5, []int{2, 0}},
		{0, 3, []int{1}},
		{1, 2, []int{0, 1, 3}},
		{2, 7, []int{3}},
	})
	var a, b bytes.Buffer
	if err := WriteHypergraph(&a, h); err != nil {
		t.Fatal(err)
	}
	if err := WriteHypergraph(&b, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two writes differ:\n%q\n%q", a.String(), b.String())
	}
}

// TestCanonicalHypergraphIsomorph: an instance with configurations
// inserted in a different order (and processors listed in a different
// order within each configuration) canonicalizes to byte-identical text
// and an equal fingerprint.
func TestCanonicalHypergraphIsomorph(t *testing.T) {
	h1 := buildHyper(t, 3, 4, []hedge{
		{0, 3, []int{1}},
		{0, 5, []int{0, 2}},
		{1, 2, []int{0, 1, 3}},
		{1, 2, []int{0, 1}},
		{2, 7, []int{3}},
	})
	h2 := buildHyper(t, 3, 4, []hedge{
		{0, 5, []int{2, 0}}, // reordered configs, reordered procs
		{0, 3, []int{1}},
		{1, 2, []int{1, 0}},
		{1, 2, []int{3, 1, 0}},
		{2, 7, []int{3}},
	})
	c1, _, err := CanonicalHypergraph(h1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := CanonicalHypergraph(h2)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := WriteHypergraph(&b1, c1); err != nil {
		t.Fatal(err)
	}
	if err := WriteHypergraph(&b2, c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("canonical isomorphs differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	f1, err := FingerprintHypergraph(h1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FingerprintHypergraph(h2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("isomorph fingerprints differ: %s vs %s", f1, f2)
	}

	// A genuinely different instance must not share the fingerprint.
	h3 := buildHyper(t, 3, 4, []hedge{
		{0, 3, []int{1}},
		{0, 5, []int{0, 2}},
		{1, 2, []int{0, 1, 3}},
		{1, 2, []int{0, 1}},
		{2, 8, []int{3}}, // weight 7 -> 8
	})
	f3, err := FingerprintHypergraph(h3)
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Fatal("different instance shares the fingerprint")
	}

	// The hash-of-canonical fast path agrees with the general entry point.
	if fc := FingerprintCanonicalHypergraph(c1); fc != f1 {
		t.Fatalf("FingerprintCanonicalHypergraph = %s, want %s", fc, f1)
	}
}

// TestCanonicalHypergraphPerm: the returned permutation maps original
// hyperedge ids to canonical ids, preserving owner, weight and processor
// set — the contract the serving layer's assignment translation relies on.
func TestCanonicalHypergraphPerm(t *testing.T) {
	h := buildHyper(t, 2, 3, []hedge{
		{0, 9, []int{0, 2}},
		{0, 1, []int{1}},
		{1, 4, []int{2}},
		{1, 4, []int{0}},
	})
	canon, perm, err := CanonicalHypergraph(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != h.NumEdges() {
		t.Fatalf("len(perm)=%d, want %d", len(perm), h.NumEdges())
	}
	seen := make([]bool, len(perm))
	for e := int32(0); int(e) < h.NumEdges(); e++ {
		c := perm[e]
		if c < 0 || int(c) >= canon.NumEdges() || seen[c] {
			t.Fatalf("perm[%d]=%d is not a permutation", e, c)
		}
		seen[c] = true
		if canon.Owner[c] != h.Owner[e] || canon.Weight[c] != h.Weight[e] {
			t.Fatalf("edge %d -> %d changed owner/weight", e, c)
		}
		op, cp := h.EdgeProcs(e), canon.EdgeProcs(c)
		if len(op) != len(cp) {
			t.Fatalf("edge %d -> %d changed processor count", e, c)
		}
		for i := range op {
			if op[i] != cp[i] {
				t.Fatalf("edge %d -> %d changed processors", e, c)
			}
		}
	}
	// Canonicalization is idempotent.
	canon2, perm2, err := CanonicalHypergraph(canon)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := WriteHypergraph(&b1, canon); err != nil {
		t.Fatal(err)
	}
	if err := WriteHypergraph(&b2, canon2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("canonicalization is not idempotent")
	}
	for i, p := range perm2 {
		if p != int32(i) {
			t.Fatalf("perm of canonical form is not the identity at %d", i)
		}
	}
}

// TestCanonicalRoundTripFingerprint: Read(Write(h)) preserves the
// fingerprint, for hypergraphs and bipartite graphs alike.
func TestCanonicalRoundTripFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := hypergraph.NewBuilder(20, 8)
	for tk := 0; tk < 20; tk++ {
		for c := 0; c < 1+rng.Intn(3); c++ {
			k := 1 + rng.Intn(3)
			procs := rng.Perm(8)[:k]
			b.AddEdge(tk, procs, 1+int64(rng.Intn(50)))
		}
	}
	h := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteHypergraph(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHypergraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := FingerprintHypergraph(h)
	f2, _ := FingerprintHypergraph(h2)
	if f1 != f2 {
		t.Fatalf("hypergraph round trip changed fingerprint: %s vs %s", f1, f2)
	}

	gb := bipartite.NewBuilder(10, 5)
	for u := 0; u < 10; u++ {
		for _, v := range rng.Perm(5)[:1+rng.Intn(3)] {
			gb.AddWeightedEdge(u, v, 1+int64(rng.Intn(9)))
		}
	}
	g := gb.MustBuild()
	buf.Reset()
	if err := WriteBipartite(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBipartite(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bf1, _ := FingerprintBipartite(g)
	bf2, _ := FingerprintBipartite(g2)
	if bf1 != bf2 {
		t.Fatalf("bipartite round trip changed fingerprint: %s vs %s", bf1, bf2)
	}
}

// TestCanonicalBipartiteUnitNormalization: a weighted encoding whose
// weights are all 1 fingerprints identically to the unit encoding of the
// same graph, and edge insertion order does not matter.
func TestCanonicalBipartiteUnitNormalization(t *testing.T) {
	b1 := bipartite.NewBuilder(2, 3)
	b1.AddEdge(0, 2)
	b1.AddEdge(0, 1)
	b1.AddEdge(1, 0)
	g1 := b1.MustBuild()

	b2 := bipartite.NewBuilder(2, 3)
	b2.AddWeightedEdge(1, 0, 1)
	b2.AddWeightedEdge(0, 1, 1)
	b2.AddWeightedEdge(0, 2, 1)
	g2 := b2.MustBuild()
	// Force the weighted representation even though all weights are 1.
	if g2.W == nil {
		g2.W = make([]int64, g2.NumEdges())
		for i := range g2.W {
			g2.W[i] = 1
		}
	}

	f1, err := FingerprintBipartite(g1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FingerprintBipartite(g2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("all-ones weighted graph fingerprints differently from unit graph: %s vs %s", f1, f2)
	}

	canon, err := CanonicalBipartite(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !canon.Unit() {
		t.Fatal("canonical form of an all-ones graph should be unit")
	}
}

// TestCanonicalPreservesSemantics: makespans of an assignment are
// unchanged when translated through the canonical permutation.
func TestCanonicalPreservesSemantics(t *testing.T) {
	h := buildHyper(t, 3, 4, []hedge{
		{0, 3, []int{1}},
		{0, 5, []int{0, 2}},
		{1, 2, []int{0, 1, 3}},
		{2, 7, []int{3}},
	})
	canon, perm, err := CanonicalHypergraph(h)
	if err != nil {
		t.Fatal(err)
	}
	// Pick each task's first original configuration; translate to canon.
	orig := make(core.HyperAssignment, h.NTasks)
	trans := make(core.HyperAssignment, h.NTasks)
	for tk := 0; tk < h.NTasks; tk++ {
		e := h.TaskEdges(tk)[0]
		orig[tk] = e
		trans[tk] = perm[e]
	}
	if err := core.ValidateHyperAssignment(canon, trans); err != nil {
		t.Fatalf("translated assignment invalid: %v", err)
	}
	if m1, m2 := core.HyperMakespan(h, orig), core.HyperMakespan(canon, trans); m1 != m2 {
		t.Fatalf("makespan changed under canonicalization: %d vs %d", m1, m2)
	}
}
