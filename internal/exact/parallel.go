// Parallel branch-and-bound engine.
//
// One engine drives all four solvers through one driver (solve, in
// exact.go). An instance is compiled once into its flat search shape
// (internal/exact/flatcore): CSR child arrays, bitset pin sets, suffix
// bounds, and symmetry/dominance tables; a SINGLEPROC graph compiles as
// its singleton-hyperedge form. A one-worker solve runs the search state
// machine on one goroutine with an unbounded chunk; with more workers the
// engine here splits the tree at a shallow frontier into independent
// subproblems (prefixes of branching choices), feeds them to a
// work-stealing worker pool — each worker owns a deque and a private
// search state, steals from a random victim when its deque runs dry, and
// re-splits stolen subproblems one level so scarce work keeps spreading —
// and shares the incumbent across workers through an atomic best bound,
// so any worker's improvement immediately tightens every other worker's
// pruning. Cancellation and the node budget fold into one shared atomic
// stopper: the budget is claimed in blocks to keep the hot path off the
// contended counter, and a watcher goroutine flips the stop flag when the
// context ends.
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
//   - per subproblem expansion: the completion prune — a max-flow
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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semimatch/internal/exact/flatcore"
	"semimatch/internal/telemetry"
)

const (
	// budgetBlock caps how many node-budget units a worker claims from
	// the shared counter at once, bounding contention on the atomic; the
	// actual block is scaled down for small budgets (see newParShared).
	budgetBlock = 2048
	// splitFactor scales the shallow-frontier size: the root split aims
	// for workers*splitFactor independent subproblems.
	splitFactor = 8
	// splitSlack bounds how far below the frontier a stolen subproblem is
	// still worth re-splitting.
	splitSlack = 8
	// chunkNodes bounds how many nodes one subproblem execution may expand
	// before it must suspend (serializing its open branches back onto the
	// deque). Chunking keeps the pool fair: no worker can sink into one
	// huge subtree while a subproblem holding the optimum waits in a
	// queue, which matters whenever subproblems outnumber workers.
	chunkNodes = 32 * 1024
)

// parShared is the cross-worker state of one parallel solve.
type parShared struct {
	best      atomic.Int64 // incumbent bound, read at every node
	budget    atomic.Int64 // remaining shared node budget
	block     int64        // per-claim block size, scaled to the budget
	stop      atomic.Bool
	exhausted atomic.Bool
	cancelled atomic.Bool
	closed    atomic.Bool  // incumbent met rootLB: proven optimal, search over
	rootLB    int64        // strongest root lower bound (flatcore.Bounds.Root)
	nodes     atomic.Int64 // nodes expanded (flushed per worker)
	steals    atomic.Int64
	splits    atomic.Int64
	pending   atomic.Int64 // subproblems not yet fully processed
	frontierN atomic.Int64 // size of the initial shallow frontier
	workers   int

	mu    sync.Mutex
	bestM int64 // makespan of bestA; equals best once workers quiesce
	bestA []int32

	// Incumbent observer plumbing: obsFn is Options.Observer; obsSent is
	// the makespan of the last observation (MaxInt64 before the first),
	// loaded lock-free as the fast path of observe(); obsMu serializes
	// delivery so observations are strictly decreasing across workers.
	obsFn   func(int64, []int32)
	obsSent atomic.Int64
	obsMu   sync.Mutex

	// Progress snapshot plumbing: progFn is Options.Progress, polled at
	// the same budget-block checkpoints as the observer and rate-limited
	// to progEvery nanoseconds by a CAS on progLast, so snapshots never
	// touch the per-node hot path and never perturb node counts. progMu
	// serializes deliveries.
	progFn    telemetry.ProgressFunc
	progEvery int64
	progStart time.Time
	progLast  atomic.Int64 // unix nanos of the last claimed snapshot
	progMu    sync.Mutex

	deques []wsDeque
}

// setProgress installs the periodic progress hook before the search
// starts.
func (sh *parShared) setProgress(fn telemetry.ProgressFunc, every time.Duration) {
	if fn == nil {
		return
	}
	if every <= 0 {
		every = telemetry.DefaultProgressInterval
	}
	sh.progFn = fn
	sh.progEvery = int64(every)
	sh.progStart = time.Now()
	sh.progLast.Store(sh.progStart.UnixNano())
}

// progressTick emits a snapshot if at least progEvery has elapsed since
// the last one; the CAS lets exactly one racing worker claim each
// interval. Called at budget-block boundaries only.
func (sh *parShared) progressTick() {
	if sh.progFn == nil {
		return
	}
	now := time.Now().UnixNano()
	last := sh.progLast.Load()
	if now-last < sh.progEvery || !sh.progLast.CompareAndSwap(last, now) {
		return
	}
	sh.emitProgress()
}

// progressFinal emits one last snapshot unconditionally; the solvers
// call it after the pool quiesces so a finished solve always reports
// its terminal state.
func (sh *parShared) progressFinal() {
	if sh.progFn == nil {
		return
	}
	sh.emitProgress()
}

func (sh *parShared) emitProgress() {
	// The counters are read under progMu so deliveries are monotone:
	// two workers claiming back-to-back intervals cannot publish their
	// snapshots in the wrong order.
	sh.progMu.Lock()
	defer sh.progMu.Unlock()
	elapsed := time.Since(sh.progStart)
	nodes := sh.nodes.Load()
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(nodes) / s
	}
	inc := sh.best.Load()
	gap := -1.0
	if sh.rootLB > 0 {
		gap = float64(inc-sh.rootLB) / float64(sh.rootLB)
	} else if inc == 0 {
		gap = 0
	}
	p := telemetry.SearchProgress{
		Elapsed:     elapsed,
		Nodes:       nodes,
		NodesPerSec: rate,
		Incumbent:   inc,
		Bound:       sh.rootLB,
		Gap:         gap,
		Workers:     sh.workers,
		Steals:      sh.steals.Load(),
		Subproblems: sh.frontierN.Load() + sh.splits.Load(),
		Pending:     sh.pending.Load(),
	}
	if len(sh.deques) > 1 {
		p.DequeDepths = make([]int, len(sh.deques))
		for i := range sh.deques {
			p.DequeDepths[i] = sh.deques[i].depth()
		}
	}
	sh.progFn(p)
}

// observe delivers the current incumbent to the observer if it improves
// on the last observation. It is called at budget-block claims (every
// sh.block nodes per worker, never per node) and once before the solver
// returns, so the hot search loop stays observation-free. The double
// check under obsMu keeps deliveries strictly decreasing even when
// several workers race past the lock-free fast path.
func (sh *parShared) observe() {
	if sh.obsFn == nil || sh.best.Load() >= sh.obsSent.Load() {
		return
	}
	sh.obsMu.Lock()
	defer sh.obsMu.Unlock()
	sh.mu.Lock()
	m := sh.bestM
	var a []int32
	if m < sh.obsSent.Load() {
		a = append([]int32(nil), sh.bestA...)
	}
	sh.mu.Unlock()
	if a != nil {
		sh.obsSent.Store(m)
		sh.obsFn(m, a)
	}
}

func newParShared(incumbent []int32, m int64, maxNodes int64, workers int) *parShared {
	sh := &parShared{
		bestM:   m,
		bestA:   append([]int32(nil), incumbent...),
		deques:  make([]wsDeque, workers),
		workers: workers,
	}
	sh.best.Store(m)
	sh.budget.Store(maxNodes)
	sh.obsSent.Store(int64(^uint64(0) >> 1)) // MaxInt64: nothing observed yet
	// Scale the claim block to the budget so small user budgets are not
	// stranded inside per-worker claims: with W workers at most
	// W·block ≈ budget/8 can sit unspent when the shared counter hits
	// zero. Unspent remainders are also refunded on flush.
	sh.block = maxNodes / int64(8*workers)
	if sh.block > budgetBlock {
		sh.block = budgetBlock
	}
	if sh.block < 64 {
		sh.block = 64
	}
	return sh
}

// offer publishes an improved complete schedule. The atomic bound and the
// mutex-guarded assignment are reconciled by bestM: concurrent improvers
// may interleave their CAS and their copy, but only a strictly better
// makespan ever overwrites bestA, so bestA always matches bestM and bestM
// converges to the minimum offered. An incumbent meeting the root lower
// bound closes the whole search: nothing better can exist.
func (sh *parShared) offer(m int64, a []int32) {
	for {
		cur := sh.best.Load()
		if m >= cur {
			return
		}
		if sh.best.CompareAndSwap(cur, m) {
			break
		}
	}
	sh.mu.Lock()
	if m < sh.bestM {
		sh.bestM = m
		copy(sh.bestA, a)
	}
	sh.mu.Unlock()
	if m <= sh.rootLB {
		sh.closed.Store(true)
		sh.stop.Store(true)
	}
}

// closeIfOptimal closes the search before it starts when the initial
// (greedy) incumbent already meets the root lower bound — the strong
// packing/matching bounds make this a common exit on easy instances.
func (sh *parShared) closeIfOptimal() {
	if sh.bestM <= sh.rootLB {
		sh.closed.Store(true)
		sh.stop.Store(true)
	}
}

// claimBlock takes up to budgetBlock nodes from the shared budget,
// returning 0 (and flipping the stop flag) when the budget is exhausted.
func (sh *parShared) claimBlock() int64 {
	for {
		cur := sh.budget.Load()
		if cur <= 0 {
			sh.exhausted.Store(true)
			sh.stop.Store(true)
			return 0
		}
		n := sh.block
		if cur < n {
			n = cur
		}
		if sh.budget.CompareAndSwap(cur, cur-n) {
			return n
		}
	}
}

func (sh *parShared) err(ctx context.Context) error {
	if sh.closed.Load() {
		// The incumbent met the root lower bound: the result is proven
		// optimal no matter why the stop flag is also set.
		return nil
	}
	if sh.cancelled.Load() {
		return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
	}
	if sh.exhausted.Load() {
		return ErrLimit
	}
	return nil
}

// ticker is a worker's private view of the shared stopper: it spends a
// locally claimed budget block per node and polls the shared stop flag (a
// single uncontended atomic load) every node.
type ticker struct {
	sh       *parShared
	local    int64
	expanded int64
}

// node accounts one search-tree node and reports whether the search must
// unwind.
func (tk *ticker) node() bool {
	if tk.sh.stop.Load() {
		return true
	}
	if tk.local == 0 {
		// Block boundary: the only periodic checkpoint a worker hits, so
		// the incumbent observer and the progress hook are polled here
		// too. With a progress hook installed the in-flight expansion
		// count is flushed first so snapshots see fresh totals; the flush
		// moves counts a worker would publish anyway, so final node
		// counts are bit-identical with and without the hook.
		tk.sh.observe()
		if tk.sh.progFn != nil {
			tk.sh.nodes.Add(tk.expanded)
			tk.expanded = 0
			tk.sh.progressTick()
		}
		if tk.local = tk.sh.claimBlock(); tk.local == 0 {
			return true
		}
	}
	tk.local--
	tk.expanded++
	return false
}

// flush publishes the node count and refunds any unspent claimed budget
// (mattering for genFrontier's short-lived ticker and for small budgets).
func (tk *ticker) flush() {
	tk.sh.nodes.Add(tk.expanded)
	tk.expanded = 0
	if tk.local > 0 {
		tk.sh.budget.Add(tk.local)
		tk.local = 0
	}
}

// wsDeque is one worker's subproblem deque: pushes append at the tail,
// and both the owner and thieves consume from the head. Head-first
// consumption makes each deque FIFO, which combines with chunked
// execution into round-robin fairness over subproblems — suspended
// continuations requeue behind older work, so nothing starves.
// Subproblems are coarse (whole subtrees or chunk continuations), so a
// mutex is plenty.
type wsDeque struct {
	mu    sync.Mutex
	head  int
	items [][]int32
}

// depth reports how many subproblems are currently queued — the live
// introspection view of a worker's backlog.
func (d *wsDeque) depth() int {
	d.mu.Lock()
	n := len(d.items) - d.head
	d.mu.Unlock()
	return n
}

func (d *wsDeque) push(p []int32) {
	d.mu.Lock()
	d.items = append(d.items, p)
	d.mu.Unlock()
}

// take removes the head subproblem; used by the owner (pop) and by
// thieves (steal).
func (d *wsDeque) take() ([]int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.items) {
		if d.head > 0 {
			d.head, d.items = 0, d.items[:0]
		}
		return nil, false
	}
	p := d.items[d.head]
	d.items[d.head] = nil
	d.head++
	if d.head == len(d.items) {
		d.head, d.items = 0, d.items[:0]
	}
	return p, true
}

// xorshift is a tiny per-worker PRNG for victim selection; stealing needs
// decorrelation, not quality.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// runPool drives the work-stealing pool over an initial frontier and
// blocks until the search is exhausted or stopped.
func runPool(sh *parShared, pr *flatcore.MP, frontier [][]int32, workers, frontierDepth int) {
	sh.pending.Store(int64(len(frontier)))
	sh.frontierN.Store(int64(len(frontier)))
	for i, p := range frontier {
		sh.deques[i%workers].push(p)
	}
	splitCap := frontierDepth + splitSlack
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := newSearchState(pr, sh)
			tk := &ticker{sh: sh}
			defer tk.flush()
			rng := xorshift(0x9E3779B97F4A7C15 ^ uint64(id+1)*0xBF58476D1CE4E5B9)
			idleSweeps := 0
			for {
				if sh.stop.Load() {
					return
				}
				sp, ok := sh.deques[id].take()
				stolen := false
				if !ok {
					sp, ok = stealSweep(sh, id, &rng)
					stolen = ok
					if !ok {
						if sh.pending.Load() == 0 {
							return
						}
						idleSweeps++
						if idleSweeps%64 == 0 {
							time.Sleep(100 * time.Microsecond)
						} else {
							runtime.Gosched()
						}
						continue
					}
				}
				idleSweeps = 0
				if stolen {
					sh.steals.Add(1)
					// Work was scarce enough that somebody had to steal:
					// re-split the stolen subtree one level so the spare
					// parts are themselves stealable.
					if len(sp) < splitCap && len(sp) < pr.N-1 {
						kids := s.expand(sp, tk)
						sh.pending.Add(int64(len(kids)) - 1)
						if len(kids) == 0 {
							continue // pruned outright; pending already settled
						}
						sh.splits.Add(1)
						for _, c := range kids[1:] {
							child := make([]int32, len(sp)+1)
							copy(child, sp)
							child[len(sp)] = c
							sh.deques[id].push(child)
						}
						child := make([]int32, len(sp)+1)
						copy(child, sp)
						child[len(sp)] = kids[0]
						sp = child
					}
				}
				// pending is raised before the continuations hit the
				// deque so it never undercounts outstanding work (a
				// racing worker could otherwise observe zero and exit).
				conts := s.run(sp, tk)
				sh.pending.Add(int64(len(conts)) - 1)
				for _, c := range conts {
					sh.deques[id].push(c)
				}
			}
		}(w)
	}
	wg.Wait()
}

func stealSweep(sh *parShared, id int, rng *xorshift) ([]int32, bool) {
	n := len(sh.deques)
	off := int(rng.next() % uint64(n))
	for i := 0; i < n; i++ {
		v := (off + i) % n
		if v == id {
			continue
		}
		if p, ok := sh.deques[v].take(); ok {
			return p, true
		}
	}
	return nil, false
}

// genFrontier breadth-first-expands the tree root until at least target
// open subproblems exist (or the whole tree is exhausted — tiny instances
// finish right here). Complete prefixes are offered as incumbents by
// expand's caller (run handles them), so the returned frontier holds only
// interior nodes. Returns the frontier and its maximum depth.
func genFrontier(s *searchState, tk *ticker, target int) ([][]int32, int) {
	queue := [][]int32{{}}
	head := 0
	n := s.pr.N
	for head < len(queue) && len(queue)-head < target {
		if tk.sh.stop.Load() {
			break
		}
		node := queue[head]
		head++
		if len(node) == n {
			// A complete assignment surfaced during the shallow split
			// (tiny instance): evaluate it as a leaf.
			s.run(node, tk)
			continue
		}
		for _, c := range s.expand(node, tk) {
			child := make([]int32, len(node)+1)
			copy(child, node)
			child[len(node)] = c
			queue = append(queue, child)
		}
	}
	frontier := queue[head:]
	maxDepth := 0
	for _, p := range frontier {
		if len(p) > maxDepth {
			maxDepth = len(p)
		}
	}
	return frontier, maxDepth
}

// watchCancel flips the shared stop flag when ctx ends; the returned
// release func must be called before reading the result.
func watchCancel(ctx context.Context, sh *parShared) (release func()) {
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
			sh.cancelled.Store(true)
			sh.stop.Store(true)
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
	pr    *flatcore.MP
	sh    *parShared
	loads []int64
	total int64
	// chosen[i] is the child ordinal applied at position i (replayed
	// prefix or live DFS); the dominance rule reads chosen[i-1], and offer
	// turns the full vector into a schedule.
	chosen []int32
	// cur is offer's scratch for the task → hyperedge schedule.
	cur []int32
	// ords/entry are the explicit DFS stack scratch: the child ordinal
	// applied at each depth, and the partial makespan at each node entry.
	ords  []int32
	entry []int64
	// scratch pair buffers for the symmetry comparison.
	pairA, pairB []symPair
	// chunkLimit bounds one run() call's node count (chunkNodes in the
	// pool; effectively unbounded for a one-worker search).
	chunkLimit int64
}

type symPair struct {
	key  int32
	load int64
}

func newSearchState(pr *flatcore.MP, sh *parShared) *searchState {
	return &searchState{
		pr:         pr,
		sh:         sh,
		loads:      make([]int64, pr.P),
		cur:        make([]int32, pr.N),
		chosen:     make([]int32, pr.N),
		ords:       make([]int32, pr.N),
		entry:      make([]int64, pr.N+1),
		pairA:      make([]symPair, 0, pr.MaxSize),
		pairB:      make([]symPair, 0, pr.MaxSize),
		chunkLimit: chunkNodes,
	}
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
	best := s.sh.best.Load()
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
// pruned or complete. Accounts one node on tk.
func (s *searchState) expand(prefix []int32, tk *ticker) []int32 {
	curMax := s.replay(prefix)
	i := len(prefix)
	if tk.node() {
		return nil
	}
	if i == s.pr.N {
		s.offer(curMax)
		return nil
	}
	if !s.bound(i, curMax) {
		return nil
	}
	// Expansions are rare (frontier generation and steal re-splits), so
	// the strong completion prune is worth a max-flow here: can every
	// remaining task still route its cheapest placement under best-1?
	if s.pr.UseFlow && s.pr.CompletePrune(s.loads, i, s.sh.best.Load()) {
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

// run explores prefix's subtree for up to chunkLimit nodes with an
// explicit-stack DFS. A nil return means the subtree is exhausted (or the
// search stopped). On chunk exhaustion it suspends: the unexplored
// remainder — the current node plus every untried sibling on the path —
// is serialized into continuation prefixes and returned for requeueing.
func (s *searchState) run(prefix []int32, tk *ticker) [][]int32 {
	pr := s.pr
	base := len(prefix)
	entry := s.entry[:pr.N-base+1]
	ords := s.ords[:max(pr.N-base, 0)]
	entry[0] = s.replay(prefix)
	chunk := s.chunkLimit
	single := pr.Single
	depth := 0
	descend := true
	for {
		var i, k int
		if descend {
			if tk.node() {
				return nil // stopped; loads are rebuilt by the next replay
			}
			chunk--
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
			if chunk <= 0 {
				return s.suspend(prefix, ords[:depth])
			}
			if k = s.nextChild(i, 0); k < 0 {
				descend = false
				continue
			}
		} else {
			if depth == 0 {
				return nil
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

// offer publishes the complete assignment the DFS holds, with makespan m,
// when it beats the incumbent. The schedule is materialized from chosen
// only then, which keeps the per-node apply free of it.
func (s *searchState) offer(m int64) {
	if m >= s.sh.best.Load() {
		return
	}
	pr := s.pr
	for i, k := range s.chosen {
		s.cur[pr.Order[i]] = pr.ChildEdge[int(pr.ChildPtr[i])+int(k)]
	}
	s.sh.offer(m, s.cur)
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

// suspend serializes the unexplored remainder of a chunked-out dive: the
// current node itself, plus — unwinding the applied path — every untried
// sibling at each level, symmetry-filtered under the loads of its own
// level.
func (s *searchState) suspend(prefix []int32, ords []int32) [][]int32 {
	conts := [][]int32{concatPrefix(prefix, ords)}
	for d := len(ords) - 1; d >= 0; d-- {
		i := len(prefix) + d
		k := int(ords[d])
		s.undo(i, k)
		for k = s.nextChild(i, k+1); k >= 0; k = s.nextChild(i, k+1) {
			c := concatPrefix(prefix, ords[:d])
			conts = append(conts, append(c, int32(k)))
		}
	}
	return conts
}

func concatPrefix(prefix, ords []int32) []int32 {
	out := make([]int32, 0, len(prefix)+len(ords)+1)
	out = append(out, prefix...)
	return append(out, ords...)
}
