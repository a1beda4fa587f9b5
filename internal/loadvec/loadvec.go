// Package loadvec maintains processor load vectors sorted in descending
// order and compares hypothetical updates lexicographically. It is the
// machinery behind the vector-greedy heuristics of Sec. IV-D3/D4 of the
// paper: "among the hyperedges, choose the ones that yield the smallest
// largest load; among the alternatives choose the ones that yield the
// smallest second largest load and so on".
//
// The paper describes (but did not implement) an improved variant that
// keeps the current load vector sorted as a list and obtains a candidate's
// sorted vector by merging the few modified positions. Tracker implements
// exactly that: comparing a candidate costs O(position of first difference
// + k log k) where k is the number of modified processors, instead of
// O(p log p) for the naive copy-and-sort.
//
// Nothing on that path allocates once its buffers have grown: a Candidate
// is staged in place into buffers it keeps between uses, and the tracker
// merges updates through buffers of its own. A greedy keeps two
// candidates, the best so far and the one being staged, and swaps them.
//
// The tracker is generic over int64 (actual loads, VGH) and float64
// (expected loads o(u), EVG).
package loadvec

import "slices"

// Value is the constraint for load types: integral loads for the plain
// heuristics, floating point for expected loads.
type Value interface {
	~int64 | ~float64
}

// SortedDesc returns a copy of loads sorted in descending order — the naive
// building block (used by the reference implementations and for testing the
// incremental path).
func SortedDesc[T Value](loads []T) []T {
	s := append([]T(nil), loads...)
	sortDesc(s)
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

// Tracker maintains per-processor loads plus the same multiset sorted
// descending, with batch updates and candidate comparison.
type Tracker[T Value] struct {
	loads   []T          // by processor index
	sorted  []T          // descending multiset of loads
	scratch []T          // the next sorted vector; swapped with sorted on update
	own     Candidate[T] // SetAll's and AddAll's staging buffers
}

// New returns a tracker for p processors, all loads zero.
func New[T Value](p int) *Tracker[T] {
	return &Tracker[T]{
		loads:   make([]T, p),
		sorted:  make([]T, p),
		scratch: make([]T, p),
	}
}

// From returns a tracker whose processor u starts with load loads[u].
func From[T Value](loads []T) *Tracker[T] {
	t := New[T](len(loads))
	copy(t.loads, loads)
	copy(t.sorted, loads)
	sortDesc(t.sorted)
	return t
}

// Len returns the number of processors.
func (t *Tracker[T]) Len() int { return len(t.loads) }

// Load returns the current load of processor u.
func (t *Tracker[T]) Load(u int32) T { return t.loads[u] }

// Loads returns the internal per-processor load slice (do not modify).
func (t *Tracker[T]) Loads() []T { return t.loads }

// Max returns the current maximum load (0 for p = 0).
func (t *Tracker[T]) Max() T {
	if len(t.sorted) == 0 {
		var zero T
		return zero
	}
	return t.sorted[0]
}

// Sorted returns the internal descending sorted loads (do not modify).
func (t *Tracker[T]) Sorted() []T { return t.sorted }

// AddAll adds delta to every processor in procs and resorts incrementally.
// procs must not contain duplicates.
func (t *Tracker[T]) AddAll(procs []int32, delta T) {
	t.StageAdd(&t.own, procs, delta)
	t.Commit(&t.own)
}

// SetAll sets loads[procs[i]] = newVals[i] and resorts incrementally in
// O(p + k log k), staging through a candidate the tracker owns. procs must
// not contain duplicates.
func (t *Tracker[T]) SetAll(procs []int32, newVals []T) {
	t.Stage(&t.own, procs, newVals)
	t.Commit(&t.own)
}

// Candidate is a hypothetical batch update against a Tracker: processor
// procs[i] would take value newVals[i]. Stage and StageAdd fill it in
// place against the tracker's current state, reusing its buffers; it stays
// valid until the tracker changes. A candidate staged with no processors,
// like the zero Candidate, changes nothing: comparing with it compares
// with the current vector.
type Candidate[T Value] struct {
	procs     []int32
	newVals   []T
	sortedOld []T // descending, current values of procs
	sortedNew []T // descending, hypothetical values of procs
}

// Stage makes c the hypothetical update procs[i] → newVals[i]. procs must
// not contain duplicates; c copies procs and newVals.
func (t *Tracker[T]) Stage(c *Candidate[T], procs []int32, newVals []T) {
	c.newVals = append(c.newVals[:0], newVals...)
	t.stage(c, procs)
}

// StageAdd makes c the hypothetical update "add delta to every processor
// in procs".
func (t *Tracker[T]) StageAdd(c *Candidate[T], procs []int32, delta T) {
	c.newVals = c.newVals[:0]
	for _, u := range procs {
		c.newVals = append(c.newVals, t.loads[u]+delta)
	}
	t.stage(c, procs)
}

// stage fills in c's processors and sorted views from c.newVals.
func (t *Tracker[T]) stage(c *Candidate[T], procs []int32) {
	c.procs = append(c.procs[:0], procs...)
	c.sortedOld = c.sortedOld[:0]
	for _, u := range procs {
		c.sortedOld = append(c.sortedOld, t.loads[u])
	}
	c.sortedNew = append(c.sortedNew[:0], c.newVals...)
	sortDesc(c.sortedOld)
	sortDesc(c.sortedNew)
}

// MaxAfter returns the maximum load the tracker would have after applying c.
func (t *Tracker[T]) MaxAfter(c *Candidate[T]) T {
	it := mergeIter[T]{base: t.sorted, skip: c.sortedOld, add: c.sortedNew}
	v, _ := it.next()
	return v
}

// Compare lexicographically compares the descending load vectors that would
// result from applying candidates a and b: -1 if a yields the smaller
// (better) vector, 0 if identical, +1 otherwise. It walks the two merged
// views in lockstep and stops at the first difference.
func (t *Tracker[T]) Compare(a, b *Candidate[T]) int {
	ia := mergeIter[T]{base: t.sorted, skip: a.sortedOld, add: a.sortedNew}
	ib := mergeIter[T]{base: t.sorted, skip: b.sortedOld, add: b.sortedNew}
	for {
		va, oka := ia.next()
		vb, okb := ib.next()
		if !oka || !okb {
			switch {
			case oka == okb:
				return 0
			case okb:
				return -1 // a shorter: impossible for same tracker, defensive
			default:
				return 1
			}
		}
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
	}
}

// Commit applies candidate c to the tracker, merging its sorted views into
// the sorted vector in O(p).
func (t *Tracker[T]) Commit(c *Candidate[T]) {
	for i, u := range c.procs {
		t.loads[u] = c.newVals[i]
	}
	t.scratch = t.appendResult(t.scratch[:0], c)
	t.sorted, t.scratch = t.scratch, t.sorted
}

// ResultVec materializes the full descending vector that would result from
// applying c; exported for tests and the naive reference implementations.
func (t *Tracker[T]) ResultVec(c *Candidate[T]) []T {
	return t.appendResult(make([]T, 0, len(t.sorted)), c)
}

// appendResult appends the descending vector c would produce to out.
func (t *Tracker[T]) appendResult(out []T, c *Candidate[T]) []T {
	it := mergeIter[T]{base: t.sorted, skip: c.sortedOld, add: c.sortedNew}
	for v, ok := it.next(); ok; v, ok = it.next() {
		out = append(out, v)
	}
	return out
}

// mergeIter yields, in descending order, the multiset
// (base \ skip) ∪ add, where base, skip and add are descending and skip is
// a sub-multiset of base. Each skip value cancels exactly one equal base
// occurrence; because equal values are interchangeable in a multiset,
// cancelling the first encountered occurrence is correct.
type mergeIter[T Value] struct {
	base, skip, add []T
	bi, si, ai      int
}

func (it *mergeIter[T]) next() (T, bool) {
	// Advance base past cancelled entries.
	for it.bi < len(it.base) && it.si < len(it.skip) && it.base[it.bi] == it.skip[it.si] {
		it.bi++
		it.si++
	}
	hasBase := it.bi < len(it.base)
	hasAdd := it.ai < len(it.add)
	switch {
	case hasBase && hasAdd:
		if it.add[it.ai] >= it.base[it.bi] {
			v := it.add[it.ai]
			it.ai++
			return v, true
		}
		v := it.base[it.bi]
		it.bi++
		return v, true
	case hasBase:
		v := it.base[it.bi]
		it.bi++
		return v, true
	case hasAdd:
		v := it.add[it.ai]
		it.ai++
		return v, true
	default:
		var zero T
		return zero, false
	}
}

// sortDesc sorts s in descending order without reflection.
func sortDesc[T Value](s []T) {
	slices.SortFunc(s, func(a, b T) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})
}
