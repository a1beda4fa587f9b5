// Branch-and-bound engine.
//
// One engine drives both solvers through one driver (solve, in
// exact.go). An instance is compiled once into its flat search shape
// (internal/exact/flatcore): CSR child arrays, bitset pin sets, suffix
// bounds, and symmetry/dominance tables; a SINGLEPROC graph compiles as
// its singleton-hyperedge form. A one-worker solve runs the search state
// machine on the calling goroutine as one uninterrupted depth-first
// search.
//
// With more workers the engine splits the tree at a shallow frontier into
// a fixed number of subproblems (prefixes of branching choices) and
// advances them in deterministic rounds. Each subproblem is a
// depth-first search that a round advances by one node quantum and then
// suspends, keeping its DFS stack so the next round resumes it exactly
// where it stopped. Each round runs every open subproblem, in list order;
// the workers take subproblems from a shared index, and the quantum
// doubles from round to round up to a cap, so an easy instance closes
// inside a small first round. Within a round each subproblem prunes
// against the incumbent from the start of the round plus its own
// improvements. At the barrier the best result wins (the lowest
// subproblem index on a tie), the subproblems still open form the next
// round's list in the same order, and the observer and progress hooks
// run. The node budget is handed out in
// subproblem order against what is left, so a budget stop is exact. The
// result and node count of a parallel solve thus depend only on the
// instance and the node budget — not on goroutine timing, GOMAXPROCS or
// the worker count. Cancellation is the one timing-dependent stop: a
// watcher goroutine halts every worker mid-round, and the solve keeps the
// best schedule found until then.
//
// The prune hierarchy, cheapest first:
//
//   - per node (integer arithmetic on flat arrays only, no allocation):
//     the incumbent bound, the average-load bound, the max-element bound,
//     and — on few-processor instances — the min-load refinement
//     (min current load + heaviest remaining placement);
//   - per child: symmetry dedup over interchangeable processors and the
//     dominance rule over interchangeable tasks (EqPrev: adjacent
//     positions with identical child lists branch with non-decreasing
//     child ordinals);
//   - per frontier expansion: the completion prune — a max-flow
//     feasibility check that every remaining task can still route its
//     cheapest placement under deadline best-1 (flatcore.CompletePrune);
//   - at the root: the strong bin-packing and matching bounds
//     (internal/lb). The search closes the moment the incumbent meets the
//     strongest root bound — including before any node is expanded.
//
// Exactness is preserved: symmetry groups come from exact transposition
// checks (never hashes), and every symmetry/dominance prune discards an
// assignment only when an equal-makespan, lexicographically smaller
// equivalent survives, so the lex-min optimal assignment is always
// explored.
package exact

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"semimatch/internal/exact/flatcore"
	"semimatch/internal/telemetry"
)

const (
	// frontierTarget is how many open subproblems the root split aims
	// for. It is fixed rather than scaled by the worker count, so the
	// rounds walk the same tree at every worker count.
	frontierTarget = 32
	// firstQuantum is the node quantum of a parallel search's first
	// round; each later round doubles it, up to maxQuantum.
	firstQuantum = 1024
	// maxQuantum caps the quantum, bounding how long a subproblem holding
	// the optimum can wait behind its siblings.
	maxQuantum = 32 * 1024
	// checkEvery is the one-worker search's checkpoint interval in nodes:
	// the observer and the progress hook are polled at these boundaries.
	checkEvery = 2048
)

// search is the driver-side state of one solve: the incumbent, the root
// bound, the node budget and the hooks. Only the solving goroutine
// touches it — the workers of a round report through their results —
// except for the cancelled and cut atomics.
type search struct {
	bestM     int64
	bestA     []int32
	rootLB    int64 // strongest root lower bound (flatcore.Bounds.Root)
	budget    int64 // nodes not yet spent
	nodes     int64 // nodes expanded
	workers   int
	closed    bool // the incumbent met rootLB: proven optimal, search over
	exhausted bool
	cancelled atomic.Bool
	// cut is the highest subproblem index of the current round still
	// allowed to run: a subproblem that closes the search lowers it to
	// its own index, and cancellation lowers it to -1.
	cut atomic.Int64

	// obsFn is Options.Observer; obsSent is the makespan of its last
	// delivery (MaxInt64 before the first).
	obsFn   func(int64, []int32)
	obsSent int64

	// progFn is Options.Progress, delivered at most every progEvery.
	progFn    telemetry.ProgressFunc
	progEvery time.Duration
	progStart time.Time
	progLast  time.Time
}

func newSearch(incumbent []int32, m, rootLB, maxNodes int64, workers int) *search {
	sr := &search{
		bestM:   m,
		bestA:   append([]int32(nil), incumbent...),
		rootLB:  rootLB,
		budget:  maxNodes,
		workers: workers,
		closed:  m <= rootLB,
		obsSent: math.MaxInt64,
	}
	sr.cut.Store(math.MaxInt64)
	return sr
}

// setProgress installs the periodic progress hook before the search
// starts.
func (sr *search) setProgress(fn telemetry.ProgressFunc, every time.Duration) {
	if fn == nil {
		return
	}
	if every <= 0 {
		every = telemetry.DefaultProgressInterval
	}
	sr.progFn = fn
	sr.progEvery = every
	sr.progStart = time.Now()
	sr.progLast = sr.progStart
}

// absorb folds one piece of finished search work into the solve: its
// node count and, when a is non-nil, the schedule it found with makespan
// m. Only a strictly better schedule replaces the incumbent, so among
// equal makespans the first absorbed wins.
func (sr *search) absorb(nodes, m int64, a []int32) {
	sr.nodes += nodes
	sr.budget -= nodes
	if a != nil && m < sr.bestM {
		sr.bestM = m
		copy(sr.bestA, a)
		sr.closed = m <= sr.rootLB
	}
}

// absorbState absorbs a search state's nodes and improvement since the
// last call.
func (sr *search) absorbState(s *searchState) {
	var a []int32
	if s.found {
		a = s.cur
	}
	sr.absorb(s.nodes, s.best, a)
	s.nodes, s.found = 0, false
}

// checkpoint delivers an improved incumbent to the observer and, once
// the progress interval has passed, a progress snapshot. It runs at round
// barriers and every checkEvery nodes of a one-worker search, never per
// node, so hooks cannot perturb node counts.
func (sr *search) checkpoint() {
	sr.observe()
	if sr.progFn != nil && time.Since(sr.progLast) >= sr.progEvery {
		sr.emitProgress()
	}
}

// observe delivers the incumbent to the observer if it improves on the
// last delivery, so deliveries are strictly decreasing.
func (sr *search) observe() {
	if sr.obsFn != nil && sr.bestM < sr.obsSent {
		sr.obsSent = sr.bestM
		sr.obsFn(sr.bestM, append([]int32(nil), sr.bestA...))
	}
}

func (sr *search) emitProgress() {
	if sr.progFn == nil {
		return
	}
	sr.progLast = time.Now()
	elapsed := sr.progLast.Sub(sr.progStart)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(sr.nodes) / s
	}
	gap := -1.0
	if sr.rootLB > 0 {
		gap = float64(sr.bestM-sr.rootLB) / float64(sr.rootLB)
	} else if sr.bestM == 0 {
		gap = 0
	}
	sr.progFn(telemetry.SearchProgress{
		Elapsed:     elapsed,
		Nodes:       sr.nodes,
		NodesPerSec: rate,
		Incumbent:   sr.bestM,
		Bound:       sr.rootLB,
		Gap:         gap,
		Workers:     sr.workers,
	})
}

func (sr *search) err(ctx context.Context) error {
	if sr.closed {
		// The incumbent met the root lower bound: the result is proven
		// optimal no matter what else stopped the search.
		return nil
	}
	if sr.cancelled.Load() {
		return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
	}
	if sr.exhausted {
		return ErrLimit
	}
	return nil
}

// dfs runs the one-worker search: one uninterrupted depth-first search
// over the whole tree, polling the hooks every checkEvery nodes. It stops
// exactly at the node budget.
func (sr *search) dfs(pr *flatcore.MP) {
	s := newSearchState(pr, sr)
	s.best = sr.bestM
	s.budget = sr.budget
	s.checkpoint = func() {
		sr.absorbState(s)
		sr.checkpoint()
	}
	sr.exhausted = s.run(&subproblem{})
	sr.absorbState(s)
}

// parallel runs the rounds search: it splits the tree at the frontier,
// then advances the open subproblems round by round until the search is
// exhausted, closes, runs out of budget or is cancelled.
func (sr *search) parallel(pr *flatcore.MP) {
	s := newSearchState(pr, sr)
	s.best = sr.bestM
	s.left = sr.budget
	var list []subproblem
	for _, root := range genFrontier(s, frontierTarget) {
		list = append(list, subproblem{root: root})
	}
	sr.absorbState(s)
	states := make([]*searchState, sr.workers)
	for q := int64(firstQuantum); len(list) > 0 && !sr.closed && !sr.cancelled.Load(); q = min(2*q, maxQuantum) {
		if sr.budget == 0 {
			sr.exhausted = true
			return
		}
		res := make([]result, len(list))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(sr.workers, len(list)); w++ {
			if states[w] == nil {
				states[w] = newSearchState(pr, sr)
			}
			wg.Add(1)
			go func(s *searchState, budget, best int64) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(len(list)) {
						return
					}
					res[i] = s.runFor(i, &list[i], min(q, max(budget-i*q, 0)), best)
				}
			}(states[w], sr.budget, sr.bestM)
		}
		wg.Wait()
		list = sr.barrier(list, res)
	}
}

// subproblem is one subtree of a rounds search: the frontier prefix it
// owns, and the DFS stack below root where its search last stopped.
type subproblem struct {
	root, path []int32
}

// result is what one subproblem's turn in a round produced: its nodes,
// whether it is still open, and its best schedule when it improved on
// the round's incumbent.
type result struct {
	nodes int64
	open  bool
	m     int64
	a     []int32
}

// barrier merges a round's results in subproblem order and returns the
// next round's list: the subproblems still open, in order. Results past
// the cut belong to subproblems that a lower-indexed close overtook; they
// are dropped, nodes included. Cancellation stores a negative cut, which
// truncates nothing: a cancelled round keeps every improvement found
// before the stop.
func (sr *search) barrier(list []subproblem, res []result) []subproblem {
	if c := sr.cut.Load(); c >= 0 && c < int64(len(res)) {
		res = res[:c+1]
	}
	next := list[:0]
	for i, r := range res {
		sr.absorb(r.nodes, r.m, r.a)
		if r.open {
			next = append(next, list[i])
		}
	}
	sr.checkpoint()
	return next
}

// genFrontier breadth-first-expands the tree root until at least target
// open subproblems exist, the whole tree is exhausted (tiny instances
// finish right here), or s's node allowance is spent. Complete prefixes
// are evaluated as leaves, so the returned frontier holds only interior
// nodes and any prefix the allowance left unexpanded.
func genFrontier(s *searchState, target int) [][]int32 {
	queue := [][]int32{{}}
	head := 0
	n := s.pr.N
	for head < len(queue) && len(queue)-head < target && s.left > 0 && !s.halted() {
		node := queue[head]
		head++
		if len(node) == n {
			// A complete assignment surfaced during the shallow split
			// (tiny instance): evaluate it as a leaf.
			s.run(&subproblem{root: node})
			continue
		}
		for _, c := range s.expand(node) {
			child := make([]int32, len(node)+1)
			copy(child, node)
			child[len(node)] = c
			queue = append(queue, child)
		}
	}
	return queue[head:]
}

// watchCancel halts the search when ctx ends; the returned release func
// must be called before reading the result. A context that has already
// ended halts it at once, so a fast search cannot finish before the
// watching goroutine first runs.
func watchCancel(ctx context.Context, sr *search) (release func()) {
	if ctx.Err() != nil {
		sr.cancelled.Store(true)
		sr.cut.Store(-1)
	}
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	quit := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-done:
			sr.cancelled.Store(true)
			sr.cut.Store(-1)
		case <-quit:
		}
	}()
	return func() { once.Do(func() { close(quit) }); wg.Wait() }
}

// searchState is one worker's mutable search state over the shared
// compiled shape. Everything the hot loop touches is a flat array sized at
// construction; node expansion allocates nothing. On a Single shape
// (SINGLEPROC in singleton form) the node loop reads each child's one pin
// from ChildPin instead of walking its pin list.
type searchState struct {
	pr  *flatcore.MP
	cut *atomic.Int64 // the search's cut (see search.cut)
	idx int64         // the subproblem index this state runs, for cut
	// best is the makespan the state prunes against: the incumbent it
	// started from, or its own improvement on it (found, schedule in cur).
	best   int64
	found  bool
	closed bool // best met rootLB: this state's search is over
	rootLB int64
	// nodes counts expansions since the last absorb. left is the node
	// allowance before the next refill; budget is what refill may still
	// grant, and checkpoint, when set, runs at every refill.
	nodes, left, budget int64
	checkpoint          func()
	loads               []int64
	total               int64
	// chosen[i] is the child ordinal applied at position i (replayed
	// prefix or live DFS); the dominance rule reads chosen[i-1], and offer
	// turns the full vector into a schedule.
	chosen []int32
	// cur is the task → hyperedge schedule of best once found.
	cur []int32
	// ords/entry are the explicit DFS stack scratch: the child ordinal
	// applied at each depth, and the partial makespan at each node entry.
	ords  []int32
	entry []int64
	// scratch pair buffers for the symmetry comparison.
	pairA, pairB []symPair
}

type symPair struct {
	key  int32
	load int64
}

func newSearchState(pr *flatcore.MP, sr *search) *searchState {
	return &searchState{
		pr:     pr,
		cut:    &sr.cut,
		rootLB: sr.rootLB,
		loads:  make([]int64, pr.P),
		cur:    make([]int32, pr.N),
		chosen: make([]int32, pr.N),
		ords:   make([]int32, pr.N),
		entry:  make([]int64, pr.N+1),
		pairA:  make([]symPair, 0, pr.MaxSize),
		pairB:  make([]symPair, 0, pr.MaxSize),
	}
}

// runFor gives subproblem idx its turn in a round: up to allow nodes,
// pruning against best. A zero allowance leaves the subproblem for the
// next round as it is.
func (s *searchState) runFor(idx int64, sub *subproblem, allow, best int64) result {
	if allow == 0 {
		return result{open: true}
	}
	s.idx, s.left, s.best, s.found, s.closed = idx, allow, best, false, false
	r := result{open: s.run(sub)}
	r.nodes, s.nodes = s.nodes, 0
	if s.found {
		r.m, r.a = s.best, slices.Clone(s.cur)
	}
	return r
}

// halted reports whether the state must stop: it closed the search, or a
// lower-indexed close or a cancellation cut it off.
func (s *searchState) halted() bool {
	return s.closed || s.idx > s.cut.Load()
}

// refill runs the checkpoint hook, if any, and grants the state its next
// block of budget, reporting false when none is left.
func (s *searchState) refill() bool {
	if s.checkpoint != nil {
		s.checkpoint()
	}
	s.left = min(s.budget, checkEvery)
	s.budget -= s.left
	return s.left > 0
}

// replay rebuilds loads/chosen/total from a choice prefix and returns
// the partial makespan.
func (s *searchState) replay(prefix []int32) int64 {
	for i := range s.loads {
		s.loads[i] = 0
	}
	s.total = 0
	var curMax int64
	for d, ord := range prefix {
		curMax = s.apply(d, int(ord), curMax)
	}
	return curMax
}

// fillPairs builds edge e's (group-or-identity, current-load) multiset,
// insertion-sorted. Processors without a symmetry group keep their
// identity (encoded disjointly as ^proc), so equality of two multisets
// certifies an automorphism mapping one edge to the other while fixing
// every current load.
func (s *searchState) fillPairs(dst []symPair, e int32) []symPair {
	dst = dst[:0]
	pr := s.pr
	for _, u := range pr.Pins[pr.PinPtr[e]:pr.PinPtr[e+1]] {
		k := pr.Sig[u]
		if k < 0 {
			k = ^u
		}
		pair := symPair{key: k, load: s.loads[u]}
		j := len(dst)
		dst = append(dst, pair)
		for j > 0 && (dst[j-1].key > pair.key || (dst[j-1].key == pair.key && dst[j-1].load > pair.load)) {
			dst[j] = dst[j-1]
			j--
		}
		dst[j] = pair
	}
	return dst
}

// dupEdge reports whether the child at flat index base+k, of static
// symmetry class c, is symmetric to an earlier sibling: an automorphism
// maps one pin set to the other preserving current loads. The earlier
// sibling's subtree is isomorphic, so this one is redundant; equality is
// transitive, so checking against all earlier siblings (explored or
// themselves skipped) is sound. Identical pin bitsets short-circuit the
// multiset comparison: same class means same weight, so equal pin sets
// are literal duplicate configurations.
func (s *searchState) dupEdge(base, k int, c int16) bool {
	pr := s.pr
	e := pr.ChildEdge[base+k]
	if pr.PinPtr[e+1]-pr.PinPtr[e] == 1 {
		return s.dupPin(base, k, c)
	}
	words := pr.PinBits[int(e)*pr.PinWords : (int(e)+1)*pr.PinWords]
	var filledA bool
	for k2 := 0; k2 < k; k2++ {
		if pr.ChildClass[base+k2] != c {
			continue
		}
		e2 := pr.ChildEdge[base+k2]
		if flatcore.EqualWords(words, pr.PinBits[int(e2)*pr.PinWords:(int(e2)+1)*pr.PinWords]) {
			return true
		}
		if !filledA {
			s.pairA = s.fillPairs(s.pairA, e)
			filledA = true
		}
		s.pairB = s.fillPairs(s.pairB, e2)
		same := true
		for j := range s.pairA {
			if s.pairA[j] != s.pairB[j] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// dupPin is dupEdge for a singleton child: a same-class sibling is a
// singleton of the same weight on an interchangeable processor, so the
// dynamic condition degenerates to one load compare.
func (s *searchState) dupPin(base, k int, c int16) bool {
	pr := s.pr
	lk := s.loads[pr.ChildPin[base+k]]
	for k2 := 0; k2 < k; k2++ {
		if pr.ChildClass[base+k2] == c && s.loads[pr.ChildPin[base+k2]] == lk {
			return true
		}
	}
	return false
}

// bound reports whether position i's subtree can still beat the incumbent:
// partial makespan, average-load on the remainder, max-element, and (on
// few-processor instances) the min-load refinement — the heaviest
// remaining placement must land on top of at least the lightest load.
func (s *searchState) bound(i int, curMax int64) bool {
	best := s.best
	if curMax >= best {
		return false
	}
	pr := s.pr
	if (s.total+pr.SuffixAvg[i]+int64(pr.P)-1)/int64(pr.P) >= best {
		return false
	}
	if pr.SuffixMax[i] >= best {
		return false
	}
	if pr.MinLoadScan {
		minLoad := s.loads[0]
		for _, l := range s.loads[1:] {
			if l < minLoad {
				minLoad = l
			}
		}
		if minLoad+pr.SuffixMax[i] >= best {
			return false
		}
	}
	return true
}

// expand replays prefix and returns its surviving child choices
// (ordinals into the node's ordered child list), or nil when the node is
// pruned or complete. It spends one node of the allowance, which the
// caller (genFrontier) has checked is left.
func (s *searchState) expand(prefix []int32) []int32 {
	curMax := s.replay(prefix)
	i := len(prefix)
	s.left--
	s.nodes++
	if i == s.pr.N {
		s.offer(curMax)
		return nil
	}
	if !s.bound(i, curMax) {
		return nil
	}
	// Expansions are rare (frontier generation only), so the strong
	// completion prune is worth a max-flow here: can every remaining task
	// still route its cheapest placement under best-1?
	if s.pr.UseFlow && s.pr.CompletePrune(s.loads, i, s.best) {
		return nil
	}
	var out []int32
	for k := s.nextChild(i, 0); k >= 0; k = s.nextChild(i, k+1) {
		out = append(out, int32(k))
	}
	return out
}

// nextChild returns the first surviving child ordinal ≥ from at position
// i (symmetry duplicates skipped, dominance floor applied), or -1.
func (s *searchState) nextChild(i, from int) int {
	pr := s.pr
	if pr.EqPrev[i] {
		// Interchangeable with the previous task: only branch with a child
		// ordinal ≥ its choice (the lex-min representative of the orbit).
		if mo := int(s.chosen[i-1]); from < mo {
			from = mo
		}
	}
	base, end := int(pr.ChildPtr[i]), int(pr.ChildPtr[i+1])
	for k := from; k < end-base; k++ {
		if pr.ChildClass == nil {
			return k
		}
		// Skip children symmetric to an earlier sibling; the one-pin
		// check inlines here on a Single shape.
		switch c := pr.ChildClass[base+k]; {
		case c < 0:
			return k
		case pr.Single:
			if !s.dupPin(base, k, c) {
				return k
			}
		default:
			if !s.dupEdge(base, k, c) {
				return k
			}
		}
	}
	return -1
}

// run advances sub's depth-first search, resuming at sub.path, until the
// subtree is exhausted, the state halts, or its node allowance runs out.
// It reports whether the allowance ran out first; sub.path then records
// the DFS stack, so the next run resumes exactly where this one stopped.
func (s *searchState) run(sub *subproblem) bool {
	pr := s.pr
	base := len(sub.root)
	entry := s.entry[:pr.N-base+1]
	ords := s.ords[:max(pr.N-base, 0)]
	entry[0] = s.replay(sub.root)
	for d, k := range sub.path {
		ords[d] = k
		entry[d+1] = s.apply(base+d, int(k), entry[d])
	}
	depth := len(sub.path)
	single := pr.Single
	descend := true
	for {
		var i, k int
		if descend {
			if s.halted() {
				return false // loads are rebuilt by the next replay
			}
			if s.left == 0 && !s.refill() {
				sub.path = append(sub.path[:0], ords[:depth]...)
				return true
			}
			s.left--
			s.nodes++
			i = base + depth
			if i == pr.N {
				s.offer(entry[depth])
				descend = false
				continue
			}
			if !s.bound(i, entry[depth]) {
				descend = false
				continue
			}
			if k = s.nextChild(i, 0); k < 0 {
				descend = false
				continue
			}
		} else {
			if depth == 0 {
				return false
			}
			depth--
			i = base + depth
			k = int(ords[depth])
			if single {
				s.undoPin(i, k)
			} else {
				s.undo(i, k)
			}
			if k = s.nextChild(i, k+1); k < 0 {
				continue
			}
			descend = true
		}
		ords[depth] = int32(k)
		// A Single shape takes the one-pin variants: no pin-list walk.
		if single {
			entry[depth+1] = s.applyPin(i, k, entry[depth])
		} else {
			entry[depth+1] = s.apply(i, k, entry[depth])
		}
		depth++
	}
}

// apply places child k of position i and returns the new partial
// makespan.
func (s *searchState) apply(i, k int, curMax int64) int64 {
	pr := s.pr
	kk := int(pr.ChildPtr[i]) + k
	e, w := pr.ChildEdge[kk], pr.ChildWt[kk]
	for _, u := range pr.Pins[pr.PinPtr[e]:pr.PinPtr[e+1]] {
		s.loads[u] += w
		curMax = max(curMax, s.loads[u])
	}
	s.total += pr.ChildCost[kk]
	s.chosen[i] = int32(k)
	return curMax
}

// applyPin is apply on a Single shape: the child's one pin is ChildPin.
func (s *searchState) applyPin(i, k int, curMax int64) int64 {
	pr := s.pr
	kk := int(pr.ChildPtr[i]) + k
	u, w := pr.ChildPin[kk], pr.ChildWt[kk]
	s.loads[u] += w
	s.total += w
	s.chosen[i] = int32(k)
	return max(curMax, s.loads[u])
}

// offer records the complete assignment the DFS holds, with makespan m,
// when it beats the state's incumbent. The schedule is materialized from
// chosen only then, which keeps the per-node apply free of it. Meeting
// the root bound closes the search: this state stops, and the cut halts
// every higher-indexed subproblem of the round.
func (s *searchState) offer(m int64) {
	if m >= s.best {
		return
	}
	pr := s.pr
	for i, k := range s.chosen {
		s.cur[pr.Order[i]] = pr.ChildEdge[int(pr.ChildPtr[i])+int(k)]
	}
	s.best, s.found = m, true
	if m <= s.rootLB {
		s.closed = true
		for {
			c := s.cut.Load()
			if c <= s.idx || s.cut.CompareAndSwap(c, s.idx) {
				break
			}
		}
	}
}

// undo reverts apply(i, k).
func (s *searchState) undo(i, k int) {
	pr := s.pr
	kk := int(pr.ChildPtr[i]) + k
	e, w := pr.ChildEdge[kk], pr.ChildWt[kk]
	for _, u := range pr.Pins[pr.PinPtr[e]:pr.PinPtr[e+1]] {
		s.loads[u] -= w
	}
	s.total -= pr.ChildCost[kk]
}

// undoPin reverts applyPin(i, k).
func (s *searchState) undoPin(i, k int) {
	pr := s.pr
	kk := int(pr.ChildPtr[i]) + k
	s.loads[pr.ChildPin[kk]] -= pr.ChildWt[kk]
	s.total -= pr.ChildWt[kk]
}
