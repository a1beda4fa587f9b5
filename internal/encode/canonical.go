package encode

// Canonical forms and content fingerprints. Two instances that are
// isomorphic under reordering — hyperedges listed in a different order
// within a task, processors listed in a different order within a
// configuration, weighted encodings whose weights are all 1 — describe the
// same scheduling problem and must hash identically, so a result cache can
// answer one from the other's solve. The canonical form fixes every such
// degree of freedom:
//
//   - tasks keep their indices (task identity is meaningful: the caller
//     asked about *these* tasks);
//   - processors within a configuration are sorted ascending (the builders
//     already guarantee this);
//   - the hyperedges of each task are sorted by (weight, processor set
//     lexicographically);
//   - bipartite rows are sorted by processor, and a weight vector that is
//     all ones is dropped so the instance is recognized as unit.
//
// The fingerprint is the SHA-256 of the canonical text encoding (the
// AppendBipartite / AppendHypergraph output, which is deterministic), hex
// encoded. The textual header ("bipartite" / "hypergraph") keeps the two
// instance kinds from ever colliding. Disk-cache entries and fleet routing
// are keyed by the fingerprint, so the text encoding must not change by a
// single byte (fingerprint_test.go pins known values).

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// CanonicalHypergraph returns the canonical form of h plus the hyperedge
// renumbering perm, where perm[e] is the canonical id of h's hyperedge e.
// Canonicalization only reorders hyperedges within each task, so task and
// processor indices are unchanged: a HyperAssignment on the canonical form
// maps back to h as original[t] = e with perm[e] = canonical[t].
// Canonicalizing a canonical instance is the identity.
func CanonicalHypergraph(h *hypergraph.Hypergraph) (*hypergraph.Hypergraph, []int32, error) {
	order, err := canonicalOrder(h)
	if err != nil {
		return nil, nil, err
	}
	perm := make([]int32, len(order))
	for canonID, origID := range order {
		perm[origID] = int32(canonID)
	}
	return h.PermuteEdges(order), perm, nil
}

// canonicalOrder validates h and returns its hyperedges in canonical
// order: order[i] is h's id of canonical hyperedge i. Task t's canonical
// hyperedges are order[h.TaskPtr[t]:h.TaskPtr[t+1]], sorted by weight,
// then processor set, with ties keeping h's order.
func canonicalOrder(h *hypergraph.Hypergraph) ([]int32, error) {
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("encode: canonicalize hypergraph: %w", err)
	}
	order := make([]int32, 0, h.NumEdges())
	for t := 0; t < h.NTasks; t++ {
		start := len(order)
		order = append(order, h.TaskEdges(t)...)
		slices.SortStableFunc(order[start:], func(a, b int32) int {
			if c := cmp.Compare(h.Weight[a], h.Weight[b]); c != 0 {
				return c
			}
			return slices.Compare(h.EdgeProcs(a), h.EdgeProcs(b))
		})
	}
	return order, nil
}

// CanonicalBipartite returns the canonical form of g: rows sorted by
// processor and the weight vector dropped when every weight is 1. Task and
// processor indices are unchanged, so an Assignment (task → processor) is
// valid on both forms interchangeably.
func CanonicalBipartite(g *bipartite.Graph) (*bipartite.Graph, error) {
	b := bipartite.NewBuilder(g.NLeft, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		ws := g.Weights(t)
		for i, p := range g.Neighbors(t) {
			w := int64(1)
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(t, int(p), w)
		}
	}
	canon, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("encode: canonicalize bipartite: %w", err)
	}
	return canon, nil
}

// FingerprintHypergraph returns the collision-resistant content hash of
// h's canonical form: isomorphic instances (reordered configurations,
// reordered processors within a configuration) share a fingerprint, and
// any structural or weight difference changes it.
func FingerprintHypergraph(h *hypergraph.Hypergraph) (string, error) {
	order, err := canonicalOrder(h)
	if err != nil {
		return "", err
	}
	// The canonical text, written from h in canonical order: the same
	// bytes as AppendHypergraph of CanonicalHypergraph(h), without the
	// canonical copy.
	return hexSum(appendHypergraphOrder(fingerprintBuf(h), h, order)), nil
}

// FingerprintCanonicalHypergraph hashes an instance that is already in
// canonical form (as produced by CanonicalHypergraph), skipping the
// re-canonicalization FingerprintHypergraph would do — for callers on a
// hot path that canonicalize once and need both the form and the hash.
// Passing a non-canonical instance yields a hash that will not match its
// isomorphs.
func FingerprintCanonicalHypergraph(canon *hypergraph.Hypergraph) string {
	return hexSum(AppendHypergraph(fingerprintBuf(canon), canon))
}

// fingerprintBuf has room for h's text with short numbers, so the text is
// written without regrowing.
func fingerprintBuf(h *hypergraph.Hypergraph) []byte {
	return make([]byte, 0, 32+12*h.NumEdges()+4*h.NumPins())
}

// FingerprintBipartite is FingerprintHypergraph for bipartite instances.
func FingerprintBipartite(g *bipartite.Graph) (string, error) {
	canon, err := CanonicalBipartite(g)
	if err != nil {
		return "", err
	}
	return FingerprintCanonicalBipartite(canon), nil
}

// FingerprintCanonicalBipartite is FingerprintCanonicalHypergraph for
// bipartite instances already in canonical form.
func FingerprintCanonicalBipartite(canon *bipartite.Graph) string {
	buf := make([]byte, 0, 32+12*canon.NumEdges())
	return hexSum(AppendBipartite(buf, canon))
}

// hexSum returns the hex-encoded SHA-256 of text.
func hexSum(text []byte) string {
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}
