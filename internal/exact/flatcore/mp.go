package flatcore

import (
	"sort"
	"time"

	"semimatch/internal/flow"
	"semimatch/internal/hypergraph"
	"semimatch/internal/lb"
)

// MP is the compiled shape of one search: flat CSR child arrays over
// hyperedge configurations, pin bitsets, branch order, suffix bounds,
// symmetry/dominance tables, and the root bound set. A SINGLEPROC
// instance compiles through hypergraph.FromGraph as the singleton-
// hyperedge case (Single). Immutable after CompileMP; shared read-only
// by all workers. Every task must have at least one configuration (the
// engines validate first).
type MP struct {
	N, P int
	// Order is the branch order: position → task. Tasks with fewest
	// configurations come first; ties are broken by child-list content so
	// interchangeable tasks sit adjacent (EqPrev needs that), then by task
	// id for determinism.
	Order []int32
	// ChildPtr/ChildEdge are the CSR child arrays: position i's candidate
	// configurations are ChildEdge[ChildPtr[i]:ChildPtr[i+1]], sorted
	// cheapest total cost (w·|pins|) first. ChildWt and ChildCost carry
	// each child's edge weight and total cost, so the node loop never
	// indexes back into the hypergraph.
	ChildPtr  []int32
	ChildEdge []int32
	ChildWt   []int64
	ChildCost []int64
	// ChildPin, parallel to ChildEdge, is the first pin of each child's
	// edge — its only pin when the edge is a singleton, which lets the
	// Single node loop skip the ChildEdge→PinPtr→Pins indirection.
	ChildPin []int32
	// PinPtr/Pins is the pin CSR (shared with the hypergraph — pins are
	// sorted and unique per edge). PinBits packs each edge's pin set into
	// PinWords uint64 words: edge e's words are
	// PinBits[e·PinWords : (e+1)·PinWords].
	PinPtr   []int32
	Pins     []int32
	PinWords int
	PinBits  []uint64
	// Sig groups interchangeable processors (verified transposition
	// automorphisms); -1 marks processors with no partner; nil disables
	// symmetry breaking.
	Sig []int32
	// ChildClass, parallel to ChildEdge: two children of one position
	// share a class iff they have the same weight and their pin sets
	// match as multisets of (symmetry group | fixed processor). -1 marks
	// children with no statically symmetric sibling. nil when Sig is nil.
	ChildClass []int16
	// EqPrev[i] reports that position i's task has a configuration list
	// identical (weights and pin sets, elementwise in child order) to
	// position i-1's task: the tasks are interchangeable, and the engine
	// prunes branches where position i picks a smaller ordinal than i-1.
	EqPrev []bool
	// MinW[i] is the cheapest configuration weight of position i (the
	// completion prune's demand). SuffixAvg[i] = Σ_{j≥i} cheapest cost of
	// position j (average-load numerator); SuffixMax[i] = max_{j≥i} MinW[j]
	// (max-element).
	MinW      []int64
	SuffixAvg []int64
	SuffixMax []int64
	// MaxSize is the largest pin count of any configuration; Single
	// (MaxSize == 1) marks a SINGLEPROC instance in singleton form.
	MaxSize int
	Single  bool
	// Bounds is the root lower-bound set; BoundsWall is how long it took
	// to compute inside CompileMP (the "root-bounds" trace span).
	Bounds     Bounds
	BoundsWall time.Duration
	// UseFlow enables CompletePrune at subproblem expansions;
	// MinLoadScan enables the per-node min-load refinement.
	UseFlow     bool
	MinLoadScan bool
}

// CompileMP compiles h into its flat search shape.
func CompileMP(h *hypergraph.Hypergraph) *MP {
	n, p := h.NTasks, h.NProcs
	ne := h.NumEdges()
	pr := &MP{N: n, P: p, PinPtr: h.PinPtr, Pins: h.Pins}

	pr.PinWords = BitsetWords(p)
	pr.PinBits = make([]uint64, ne*pr.PinWords)
	for e := 0; e < ne; e++ {
		b := Bitset(pr.PinBits[e*pr.PinWords : (e+1)*pr.PinWords])
		for _, u := range h.EdgeProcs(int32(e)) {
			b.Set(u)
		}
	}

	cost := make([]int64, ne)
	for e := range cost {
		cost[e] = h.Weight[e] * int64(h.EdgeSize(int32(e)))
	}

	// cmpContent orders configurations by (cost, weight, pins); 0 means
	// identical placement behavior (same weight onto the same pin set).
	cmpContent := func(a, b int32) int {
		if cost[a] != cost[b] {
			if cost[a] < cost[b] {
				return -1
			}
			return 1
		}
		if h.Weight[a] != h.Weight[b] {
			if h.Weight[a] < h.Weight[b] {
				return -1
			}
			return 1
		}
		pa, pb := h.EdgeProcs(a), h.EdgeProcs(b)
		if len(pa) != len(pb) {
			return len(pa) - len(pb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return int(pa[i]) - int(pb[i])
			}
		}
		return 0
	}

	// Per-task child lists sorted cheapest first (content ties by edge id
	// for determinism).
	chEdge := make([][]int32, n)
	for t := 0; t < n; t++ {
		edges := append([]int32(nil), h.TaskEdges(t)...)
		sort.Slice(edges, func(a, b int) bool {
			if c := cmpContent(edges[a], edges[b]); c != 0 {
				return c < 0
			}
			return edges[a] < edges[b]
		})
		chEdge[t] = edges
	}

	// cmpTasks: 0 means the two tasks' configuration lists are identical
	// as (weight, pin set) sequences — the tasks are interchangeable.
	// Within equal degree, heavier configuration lists come first
	// (LPT-style): the content comparison is negated for ordering, which
	// still leaves identical lists adjacent for EqPrev detection. On a
	// singleton shape, lists that differ only in which processors they
	// name keep ascending processor order instead: multi-pin and singleton
	// trees each explore fewer nodes under their own tie-break (the
	// recorded sp-restricted and mp-random counts pin both).
	_, pr.MaxSize = h.MinMaxEdgeSize()
	pr.Single = pr.MaxSize == 1
	cmpTasks := func(a, b int32) int {
		ea, eb := chEdge[a], chEdge[b]
		if len(ea) != len(eb) {
			return len(ea) - len(eb)
		}
		for k := range ea {
			if c := cmpContent(ea[k], eb[k]); c != 0 {
				if pr.Single && h.Weight[ea[k]] == h.Weight[eb[k]] {
					return c // same weight, different processor
				}
				return -c
			}
		}
		return 0
	}
	pr.Order = make([]int32, n)
	for i := range pr.Order {
		pr.Order[i] = int32(i)
	}
	sort.SliceStable(pr.Order, func(i, j int) bool {
		if c := cmpTasks(pr.Order[i], pr.Order[j]); c != 0 {
			return c < 0
		}
		return pr.Order[i] < pr.Order[j]
	})

	pr.ChildPtr = make([]int32, n+1)
	pr.EqPrev = make([]bool, n)
	total := 0
	for i, t := range pr.Order {
		pr.ChildPtr[i] = int32(total)
		total += len(chEdge[t])
		pr.EqPrev[i] = i > 0 && cmpTasks(pr.Order[i-1], t) == 0
	}
	pr.ChildPtr[n] = int32(total)
	pr.ChildEdge = make([]int32, total)
	pr.ChildWt = make([]int64, total)
	pr.ChildCost = make([]int64, total)
	pr.ChildPin = make([]int32, total)
	pr.MinW = make([]int64, n)
	for i, t := range pr.Order {
		base := int(pr.ChildPtr[i])
		minW := int64(-1)
		for k, e := range chEdge[t] {
			pr.ChildEdge[base+k] = e
			pr.ChildWt[base+k] = h.Weight[e]
			pr.ChildCost[base+k] = cost[e]
			pr.ChildPin[base+k] = h.Pins[h.PinPtr[e]]
			if w := h.Weight[e]; minW < 0 || w < minW {
				minW = w
			}
		}
		pr.MinW[i] = minW
	}

	pr.SuffixAvg = make([]int64, n+1)
	pr.SuffixMax = make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		minC := pr.ChildCost[pr.ChildPtr[i]] // children sorted by cost
		pr.SuffixAvg[i] = pr.SuffixAvg[i+1] + minC
		pr.SuffixMax[i] = pr.SuffixMax[i+1]
		if pr.MinW[i] > pr.SuffixMax[i] {
			pr.SuffixMax[i] = pr.MinW[i]
		}
	}

	pr.Sig = mpProcSig(h, pr.PinWords, pr.PinBits)
	if pr.Sig != nil {
		pr.ChildClass = mpChildClasses(pr, h)
	}

	if n > 0 && p > 0 {
		boundsStart := time.Now()
		pr.Bounds = Bounds{
			Avg:     (pr.SuffixAvg[0] + int64(p) - 1) / int64(p),
			MaxElem: pr.SuffixMax[0],
			Pack:    lb.Packing(pr.MinW, p),
		}
		if n <= MatchCap {
			pr.Bounds.Match = lb.MatchingHyper(h)
		}
		pr.BoundsWall = time.Since(boundsStart)
	}
	pr.UseFlow = n > 0 && n <= MatchCap
	pr.MinLoadScan = p > 1 && p <= MinLoadCap
	return pr
}

// mpProcSig finds processors whose transposition is an automorphism of
// the hypergraph — swapping them maps the hyperedge multiset onto
// itself, preserving owners and weights. The check is exact: candidate
// pairs come from a cheap incidence invariant, then each pair is
// verified by mapping every incident hyperedge through the swap and
// looking the image up in the edge multiset (sorted-run binary search —
// no maps). Returns nil when no group has two members or a multi-pin
// instance exceeds the detection gates. Singleton shapes are never gated:
// there equal candidate profiles are identical (task, weight) rows, so
// every verification succeeds against the first representative and the
// grouping stays near-linear.
func mpProcSig(h *hypergraph.Hypergraph, pinWords int, pinBits []uint64) []int32 {
	p, ne := h.NProcs, h.NumEdges()
	_, maxSize := h.MinMaxEdgeSize()
	if p < 2 || (maxSize > 1 && (p > SymProcCap || ne > SymEdgeCap)) {
		return nil
	}

	// Candidate invariant: each processor's profile is the sequence of
	// (owner, weight, size) triples of its incident edges, in edge-id
	// order (canonical). Flattened CSR, compared lexicographically.
	profPtr := make([]int32, p+1)
	for _, u := range h.Pins {
		profPtr[u+1]++
	}
	for u := 0; u < p; u++ {
		profPtr[u+1] += profPtr[u]
	}
	prof := make([]int64, 3*len(h.Pins))
	inc := make([]int32, len(h.Pins)) // incident edge ids per processor
	fill := append([]int32(nil), profPtr[:p]...)
	for e := 0; e < ne; e++ {
		o, w, sz := int64(h.Owner[e]), h.Weight[e], int64(h.EdgeSize(int32(e)))
		for _, u := range h.EdgeProcs(int32(e)) {
			pos := fill[u]
			fill[u]++
			prof[3*pos], prof[3*pos+1], prof[3*pos+2] = o, w, sz
			inc[pos] = int32(e)
		}
	}
	cmpProf := func(a, b int32) int {
		la, lb := profPtr[a+1]-profPtr[a], profPtr[b+1]-profPtr[b]
		if la != lb {
			return int(la - lb)
		}
		pa := prof[3*profPtr[a] : 3*profPtr[a+1]]
		pb := prof[3*profPtr[b] : 3*profPtr[b+1]]
		for i := range pa {
			if pa[i] != pb[i] {
				if pa[i] < pb[i] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	procIdx := make([]int32, p)
	for i := range procIdx {
		procIdx[i] = int32(i)
	}
	sort.Slice(procIdx, func(i, j int) bool {
		if c := cmpProf(procIdx[i], procIdx[j]); c != 0 {
			return c < 0
		}
		return procIdx[i] < procIdx[j]
	})

	// Edge multiset as sorted runs of identical (owner, weight, pins)
	// edges: run length = multiplicity, membership by binary search.
	cmpEdge := func(a, b int32) int {
		if h.Owner[a] != h.Owner[b] {
			return int(h.Owner[a]) - int(h.Owner[b])
		}
		if h.Weight[a] != h.Weight[b] {
			if h.Weight[a] < h.Weight[b] {
				return -1
			}
			return 1
		}
		pa, pb := h.EdgeProcs(a), h.EdgeProcs(b)
		if len(pa) != len(pb) {
			return len(pa) - len(pb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return int(pa[i]) - int(pb[i])
			}
		}
		return 0
	}
	eidx := make([]int32, ne)
	for i := range eidx {
		eidx[i] = int32(i)
	}
	sort.Slice(eidx, func(i, j int) bool {
		if c := cmpEdge(eidx[i], eidx[j]); c != 0 {
			return c < 0
		}
		return eidx[i] < eidx[j]
	})
	edgeRun := make([]int32, ne)
	var runLen []int32
	for lo := 0; lo < ne; {
		hi := lo + 1
		for hi < ne && cmpEdge(eidx[lo], eidx[hi]) == 0 {
			hi++
		}
		r := int32(len(runLen))
		runLen = append(runLen, int32(hi-lo))
		for _, e := range eidx[lo:hi] {
			edgeRun[e] = r
		}
		lo = hi
	}
	// cmpKey compares edge e against a lookup key (image of a swapped
	// edge): same ordering as cmpEdge.
	cmpKey := func(e int32, owner int32, w int64, pins []int32) int {
		if h.Owner[e] != owner {
			return int(h.Owner[e]) - int(owner)
		}
		if h.Weight[e] != w {
			if h.Weight[e] < w {
				return -1
			}
			return 1
		}
		pe := h.EdgeProcs(e)
		if len(pe) != len(pins) {
			return len(pe) - len(pins)
		}
		for i := range pe {
			if pe[i] != pins[i] {
				return int(pe[i]) - int(pins[i])
			}
		}
		return 0
	}
	findRun := func(owner int32, w int64, pins []int32) int32 {
		pos := sort.Search(ne, func(i int) bool { return cmpKey(eidx[i], owner, w, pins) >= 0 })
		if pos < ne && cmpKey(eidx[pos], owner, w, pins) == 0 {
			return edgeRun[eidx[pos]]
		}
		return -1
	}

	swapped := make([]int32, maxSize)
	// verify checks that the transposition (a b) maps the edge multiset
	// onto itself. Because a transposition is an involution, it suffices
	// that every edge incident to exactly one of {a,b} has an image class
	// of equal multiplicity.
	verify := func(a, b int32) bool {
		for _, u := range [2]int32{a, b} {
			for _, e := range inc[profPtr[u]:profPtr[u+1]] {
				bits := Bitset(pinBits[int(e)*pinWords : (int(e)+1)*pinWords])
				if bits.Has(a) && bits.Has(b) {
					continue // swap fixes the pin set
				}
				pins := h.EdgeProcs(e)
				sw := swapped[:len(pins)]
				copy(sw, pins)
				for i, v := range sw {
					switch v {
					case a:
						sw[i] = b
					case b:
						sw[i] = a
					}
				}
				// Insertion sort: pin sets are tiny and nearly sorted.
				for i := 1; i < len(sw); i++ {
					v := sw[i]
					j := i
					for j > 0 && sw[j-1] > v {
						sw[j] = sw[j-1]
						j--
					}
					sw[j] = v
				}
				r := findRun(h.Owner[e], h.Weight[e], sw)
				if r < 0 || runLen[r] != runLen[edgeRun[e]] {
					return false
				}
			}
		}
		return true
	}

	sig := make([]int32, p)
	for i := range sig {
		sig[i] = -1
	}
	id := int32(0)
	// Greedy class building within candidate runs, with verified
	// transpositions against each class representative. Verified (a,r)
	// and (b,r) compose to a verified symmetry between a and b.
	var reps, repIDs []int32
	for lo := 0; lo < p; {
		hi := lo + 1
		for hi < p && cmpProf(procIdx[lo], procIdx[hi]) == 0 {
			hi++
		}
		if hi-lo >= 2 {
			reps, repIDs = reps[:0], repIDs[:0]
			for _, u := range procIdx[lo:hi] {
				placed := false
				for ri, r := range reps {
					if verify(r, u) {
						sig[u] = repIDs[ri]
						placed = true
						break
					}
				}
				if !placed {
					reps = append(reps, u)
					repIDs = append(repIDs, id)
					sig[u] = id
					id++
				}
			}
		}
		lo = hi
	}
	// Demote singleton classes: a processor with no verified partner gets
	// no signature (keeps the per-node sibling scan cheap).
	classSize := make([]int32, id)
	for _, s := range sig {
		if s >= 0 {
			classSize[s]++
		}
	}
	any := false
	for i, s := range sig {
		if s >= 0 && classSize[s] < 2 {
			sig[i] = -1
		} else if s >= 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return sig
}

// mpChildClasses assigns, per position, symmetry classes over each
// child's (weight, group-mapped pin multiset) key — sort-based grouping
// over per-position scratch key vectors. Pins in a symmetry group map to
// the group id; ungrouped pins keep their identity (encoded disjointly
// as ^proc). Children with no grouped pin get no class: their only
// symmetric sibling would be a literal duplicate edge.
func mpChildClasses(pr *MP, h *hypergraph.Hypergraph) []int16 {
	cls := make([]int16, len(pr.ChildEdge))
	var keyBuf [][]int64
	var kidx []int32
	for i := 0; i < pr.N; i++ {
		base, end := int(pr.ChildPtr[i]), int(pr.ChildPtr[i+1])
		deg := end - base
		for len(keyBuf) < deg {
			keyBuf = append(keyBuf, nil)
		}
		kidx = kidx[:0]
		for k := 0; k < deg; k++ {
			cls[base+k] = -1
			e := pr.ChildEdge[base+k]
			grouped := false
			key := keyBuf[k][:0]
			key = append(key, pr.ChildWt[base+k])
			for _, u := range h.EdgeProcs(e) {
				s := int64(pr.Sig[u])
				if s >= 0 {
					grouped = true
				} else {
					s = int64(^u)
				}
				key = append(key, s)
			}
			sort.Slice(key[1:], func(a, b int) bool { return key[1+a] < key[1+b] })
			keyBuf[k] = key
			if grouped {
				kidx = append(kidx, int32(k))
			}
		}
		cmpKey := func(a, b int32) int {
			ka, kb := keyBuf[a], keyBuf[b]
			if len(ka) != len(kb) {
				return len(ka) - len(kb)
			}
			for j := range ka {
				if ka[j] != kb[j] {
					if ka[j] < kb[j] {
						return -1
					}
					return 1
				}
			}
			return 0
		}
		sort.Slice(kidx, func(a, b int) bool {
			if c := cmpKey(kidx[a], kidx[b]); c != 0 {
				return c < 0
			}
			return kidx[a] < kidx[b]
		})
		next := int16(0)
		for lo := 0; lo < len(kidx); {
			hi := lo + 1
			for hi < len(kidx) && cmpKey(kidx[lo], kidx[hi]) == 0 {
				hi++
			}
			if hi-lo >= 2 {
				for _, k := range kidx[lo:hi] {
					cls[base+int(k)] = next
				}
				next++
			}
			lo = hi
		}
	}
	return cls
}

// CompletePrune reports whether no completion of positions from..N-1 on
// top of the given loads can reach makespan < best. With deadline
// T = best-1, a configuration is available only if its weight still fits
// every one of its pins (w + load ≤ T for all pins); an available
// configuration lets the task route its cheapest weight through any of
// those pins, against residual capacities T - load. Flow infeasibility
// proves the subtree cannot improve the incumbent.
func (pr *MP) CompletePrune(loads []int64, from int, best int64) bool {
	T := best - 1
	if T < 0 {
		return false
	}
	n := pr.N - from
	if n <= 0 {
		return false
	}
	net := flow.NewNetwork(n + pr.P + 2)
	s, t := n+pr.P, n+pr.P+1
	var want int64
	for j := 0; j < n; j++ {
		pos := from + j
		m := pr.MinW[pos]
		net.AddArc(s, j, m)
		want += m
		avail := false
		for k := pr.ChildPtr[pos]; k < pr.ChildPtr[pos+1]; k++ {
			w := pr.ChildWt[k]
			e := pr.ChildEdge[k]
			pins := pr.Pins[pr.PinPtr[e]:pr.PinPtr[e+1]]
			ok := true
			for _, u := range pins {
				if w+loads[u] > T {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			avail = true
			for _, u := range pins {
				// Duplicate arcs across configurations are harmless: the
				// source arc caps the task's outflow at m.
				net.AddArc(j, n+int(u), m)
			}
		}
		if !avail {
			return true // no configuration of this task fits under T
		}
	}
	for proc := 0; proc < pr.P; proc++ {
		if c := T - loads[proc]; c > 0 {
			net.AddArc(n+proc, t, c)
		}
	}
	return net.MaxFlow(s, t) != want
}
