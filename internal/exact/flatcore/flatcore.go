// Package flatcore compiles problem instances into flat, allocation-free
// search shapes for the exact branch-and-bound engine.
//
// There is one shape, MP, and one compiler, CompileMP. A SINGLEPROC
// instance is the MULTIPROC special case whose every hyperedge has one
// pin (Sec. II-B of the paper), so it compiles from
// hypergraph.FromGraph; the shape marks that case Single, and the node
// loop takes a one-pin fast path on it instead of walking pin lists.
//
// Compilation produces CSR-style index/offset arrays (every per-position
// child list is a range of one flat array), uint64-word bitsets for pin
// sets, and sorted-slice grouping for the symmetry machinery — no maps
// anywhere. After compilation a search node touches only flat
// int32/int64 arrays, so the hot loop does zero heap allocations and
// walks memory linearly.
//
// A compiled shape also carries the instance's root bound set (Bounds):
// the classic average-load and max-element bounds plus the two strong
// bounds from internal/lb — the bin-packing bound on the
// identical-machines relaxation and the matching/max-flow bound. The
// engine uses the strongest of the four to terminate the moment an
// incumbent meets it, and the bound that closed the gap names the
// certificate witness.
//
// Two structural prunes are compiled in as well:
//
//   - processor symmetry (sort-based): Sig groups processors whose
//     transposition is a verified automorphism, and ChildClass marks
//     statically interchangeable children of each position;
//   - task dominance: EqPrev marks positions whose task has an
//     identical child list to the previous position's task. Two such
//     tasks are interchangeable — swapping their choices yields the same
//     load vector — so the engine only explores branches where the later
//     task's child ordinal is ≥ the earlier one's.
//
// Both prunes (and the engine's sibling dedup) are sound together by a
// lexicographic-minimality argument: each rule discards an assignment
// only when an equal-makespan assignment with a lexicographically
// smaller child-ordinal vector exists, so the lex-min optimal assignment
// survives every prune.
package flatcore

const (
	// SymProcCap / SymEdgeCap gate the symmetry detection on multi-pin
	// shapes: the pairwise transposition verification is quadratic in
	// group size there, so it only runs at exact-solver instance scales.
	SymProcCap = 512
	SymEdgeCap = 8192
	// MatchCap gates the matching/max-flow root bound and the
	// completion-prune flow: both are polynomial, but per-compile (and
	// per-frontier-expansion) flows only pay off at exact-solver scales.
	MatchCap = 4096
	// MinLoadCap gates the per-node min-load refinement (makespan ≥
	// lightest current load + heaviest remaining placement): it scans all
	// processor loads at every node, so it is enabled only when that scan
	// is a handful of compares.
	MinLoadCap = 16
)

// Bounds is the root lower-bound set of a compiled instance. Avg and
// MaxElem are the classic cheap bounds; Pack and Match are the strong
// bounds from internal/lb (Match is 0 when gated off by MatchCap).
type Bounds struct {
	Avg, MaxElem, Pack, Match int64
}

// Root returns the strongest root lower bound.
func (b Bounds) Root() int64 {
	r := b.Avg
	if b.MaxElem > r {
		r = b.MaxElem
	}
	if b.Pack > r {
		r = b.Pack
	}
	if b.Match > r {
		r = b.Match
	}
	return r
}

// Bitset is a packed uint64-word bit vector.
type Bitset []uint64

// BitsetWords returns the word count needed for n bits.
func BitsetWords(n int) int { return (n + 63) / 64 }

// Set sets bit i.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// EqualWords reports whether two equal-length word slices are identical —
// the O(words) pin-set equality behind the MULTIPROC dedup fast path.
func EqualWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
