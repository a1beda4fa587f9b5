// Package loadvec compares processor load vectors sorted in descending
// order. It is the machinery behind the vector-greedy heuristics of
// Sec. IV-D3/D4 of the paper: "among the hyperedges, choose the ones that
// yield the smallest largest load; among the alternatives choose the ones
// that yield the smallest second largest load and so on".
//
// The greedies compare candidates that each add a weight to a few
// processors of one load vector. Such candidates are compared on the
// processors they touch alone, without sorting or keeping the whole
// vector, because of this lemma: if two equal-size multisets A = C ⊎ X and
// B = C ⊎ Y share a common part C, then A and B, sorted descending,
// compare lexicographically as X and Y do. Proof: the order of two
// equal-size multisets is decided at the largest value whose multiplicity
// differs (the one with more copies of it is larger), and C adds the same
// amount to both multiplicities. The processors neither candidate touches
// are such a common part, and so is a touched processor that ends at the
// same value under both.
//
// Comparing two candidates that touch k processors between them sorts k
// values by insertion, O(k²) at worst but fast for the few processors a
// configuration has, and allocates nothing once a Comparer's buffers have
// grown. The package is generic over int64 (actual loads for VGH and
// refinement, scaled expected loads for EVG-X) and float64 (expected loads
// o(u), EVG).
package loadvec

import "slices"

// Value is the constraint for load types: integral loads for the plain
// heuristics, floating point for expected loads.
type Value interface {
	~int64 | ~float64
}

// SortedDesc returns a copy of loads sorted in descending order — the naive
// building block (used by the reference implementations and for testing the
// touched-set comparison).
func SortedDesc[T Value](loads []T) []T {
	s := append([]T(nil), loads...)
	slices.SortFunc(s, func(a, b T) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})
	return s
}

// CompareVec lexicographically compares two equal-length descending vectors:
// -1 if a < b (a is the better/smaller load profile), 0 if equal, +1 if a > b.
func CompareVec[T Value](a, b []T) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Comparer compares hypothetical updates of a load vector. Its zero value
// is ready to use; it keeps two buffers between calls so that comparing
// does not allocate once they have grown.
type Comparer[T Value] struct {
	a, b []T
}

// Compare compares the descending load vectors that result from adding
// da to loads[u] for every processor u in a, and from adding db to
// loads[u] for every u in b: -1 if a's vector is the smaller (better), 0
// if they are equal, +1 otherwise. It equals
// CompareVec(SortedDesc(loads after a), SortedDesc(loads after b)) but
// looks only at the processors in a or b. a and b must be sorted
// ascending without duplicates, as hyperedge pins are; either may be
// empty, the update that changes nothing. loads is not modified.
func (c *Comparer[T]) Compare(loads []T, a []int32, da T, b []int32, db T) int {
	va, vb := c.a[:0], c.b[:0]
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var u int32
		x, y := da, db // what u gains under a and under b
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]): // only a touches u
			u, y = a[i], 0
			i++
		case i == len(a) || b[j] < a[i]: // only b touches u
			u, x = b[j], 0
			j++
		default: // both touch u
			u = a[i]
			i++
			j++
		}
		if x, y = loads[u]+x, loads[u]+y; x != y {
			va, vb = insertDesc(va, x), insertDesc(vb, y)
		}
	}
	c.a, c.b = va, vb
	return CompareVec(va, vb)
}

// insertDesc inserts v into the descending slice s.
func insertDesc[T Value](s []T, v T) []T {
	s = append(s, v)
	i := len(s) - 1
	for ; i > 0 && s[i-1] < v; i-- {
		s[i] = s[i-1]
	}
	s[i] = v
	return s
}
