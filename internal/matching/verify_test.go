package matching

import "fmt"

// Verify checks that matchL is a valid matching of g: endpoints in range and
// no right vertex used twice, and every matched pair is an actual edge.
func Verify(g Graph, matchL []int32) error {
	if len(matchL) != g.LeftCount() {
		return fmt.Errorf("matching: len(matchL)=%d, want %d", len(matchL), g.LeftCount())
	}
	usedBy := make([]int32, g.RightCount())
	for i := range usedBy {
		usedBy[i] = unmatched
	}
	for u := 0; u < g.LeftCount(); u++ {
		v := matchL[u]
		if v == unmatched {
			continue
		}
		if v < 0 || int(v) >= g.RightCount() {
			return fmt.Errorf("matching: matchL[%d]=%d out of range", u, v)
		}
		if usedBy[v] != unmatched {
			return fmt.Errorf("matching: right vertex %d matched to both %d and %d", v, usedBy[v], u)
		}
		usedBy[v] = int32(u)
		found := false
		for _, w := range g.Row(u) {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", u, v)
		}
	}
	return nil
}

// VerifyMaximal reports an error if some unmatched left vertex has an
// unmatched neighbor (i.e. the matching is not maximal).
func VerifyMaximal(g Graph, matchL []int32) error {
	usedR := make([]bool, g.RightCount())
	for _, v := range matchL {
		if v != unmatched {
			usedR[v] = true
		}
	}
	for u := 0; u < g.LeftCount(); u++ {
		if matchL[u] != unmatched {
			continue
		}
		for _, v := range g.Row(u) {
			if !usedR[v] {
				return fmt.Errorf("matching: not maximal, edge (%d,%d) is free", u, v)
			}
		}
	}
	return nil
}
