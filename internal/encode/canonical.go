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
// encoded; the text is streamed into the hash, never held whole. The
// textual header ("bipartite" / "hypergraph") keeps the two instance
// kinds from ever colliding. Disk-cache entries and fleet routing
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
	order, err := CanonicalOrder(h)
	if err != nil {
		return nil, nil, err
	}
	perm := make([]int32, len(order))
	for canonID, origID := range order {
		perm[origID] = int32(canonID)
	}
	return h.PermuteEdges(order), perm, nil
}

// CanonicalOrder validates h and returns its hyperedges in canonical
// order: order[i] is h's id of canonical hyperedge i, so h.PermuteEdges(
// order) is the canonical form and order maps a canonical assignment back
// to h's numbering. Task t's canonical hyperedges are
// order[h.TaskPtr[t]:h.TaskPtr[t+1]], sorted by weight, then processor
// set, with ties keeping h's order.
func CanonicalOrder(h *hypergraph.Hypergraph) ([]int32, error) {
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
	order, err := CanonicalOrder(h)
	if err != nil {
		return "", err
	}
	return FingerprintOrder(h, order), nil
}

// FingerprintOrder hashes h's text with its hyperedges listed in order:
// with order = CanonicalOrder(h) it is h's fingerprint, the hash of
// AppendHypergraph of h.PermuteEdges(order), computed without that copy;
// with order = h.Edges it hashes h as given, which is the fingerprint
// when h is already canonical.
func FingerprintOrder(h *hypergraph.Hypergraph, order []int32) string {
	w := hashWriter(32 + 12*h.NumEdges() + 4*h.NumPins())
	w.hypergraph(h, order)
	return w.sum()
}

// FingerprintBipartite is FingerprintHypergraph for bipartite instances.
func FingerprintBipartite(g *bipartite.Graph) (string, error) {
	canon, err := CanonicalBipartite(g)
	if err != nil {
		return "", err
	}
	return FingerprintCanonicalBipartite(canon), nil
}

// FingerprintCanonicalBipartite is the fingerprint of a bipartite
// instance already in canonical form (as CanonicalBipartite returns it).
func FingerprintCanonicalBipartite(canon *bipartite.Graph) string {
	w := hashWriter(32 + 12*canon.NumEdges())
	w.bipartite(canon)
	return w.sum()
}

// hashWriter is a textWriter that streams into SHA-256 through a buffer
// of about flushAt bytes, or of size bytes when the whole text, written
// with short numbers, fits in less.
func hashWriter(size int) textWriter {
	return textWriter{buf: make([]byte, 0, min(size, 2*flushAt)), h: sha256.New()}
}

// sum is the hex-encoded SHA-256 of all text w has written.
func (w *textWriter) sum() string {
	w.h.Write(w.buf)
	w.buf = w.h.Sum(w.buf[:0]) // the buffer's room holds the sum, so no allocation
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], w.buf)
	return string(text[:])
}
