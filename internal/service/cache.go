package service

import (
	"slices"
	"strings"
	"sync"
	"time"

	"semimatch/internal/cert"
	"semimatch/internal/registry"
)

// lruCache is a sharded LRU over solve results. Sharding keeps the lock
// hold times of a hot serving path short: keys hash (FNV-1a) to one of
// nShards independent shards, each with its own mutex, index and recency
// list, so concurrent requests for different instances rarely contend.
// Counters are per shard (updated under the shard lock) and aggregated on
// read.
//
// The layout keeps a full cache cheap for the garbage collector, which
// otherwise walks every entry on every collection. A shard is one map
// from key to slot number and one slot array; the recency list is linked
// through the slots by int32 indices, and a slot stores its result flat
// (see record): scalars by value, strings as ids into a label table built
// at init, the fingerprint as a prefix of the key, and the assignment and
// loads as arrays the collector marks without reading. An entry is thus
// its key string and those arrays; there is no per-entry list element,
// entry or Result object. Hits copy the record out into a Result private
// to the caller (get).
type lruCache struct {
	shards []*cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	index map[string]int32 // key → slot
	// slots grows to cap as entries arrive; once full, a new key reuses
	// the least recently used slot.
	slots      []slot
	head, tail int32 // most and least recently used slot; -1 when empty
	hits       uint64
	misses     uint64
	evicted    uint64
}

// slot is one entry and its links in the shard's recency list (prev
// toward head, next toward tail; -1 ends the list).
type slot struct {
	key        string
	prev, next int32
	rec        record
}

// record is a Result stored without pointers to per-entry objects other
// than its arrays. Each string field is a strRef (see ref). The
// certificate's assignment is kept only when it differs from the
// result's own; otherwise both share assign.
type record struct {
	assign     []int32
	loads      []int64
	certAssign []int32
	// own holds strings neither in the label table nor a prefix of the
	// key — only entries adopted from disk or a peer with unknown labels.
	own []string

	kind, fp, alg, tier          strRef
	certFP, certClass, certSolve strRef

	makespan, lowerBound int64
	elapsed              time.Duration
	certMakespan         int64
	certLowerBound       int64
	witnessNodes         int64
	witnessKind          cert.WitnessKind
	trust                cert.Tier
	flags                recordFlags
}

type recordFlags uint8

const (
	flagOptimal recordFlags = 1 << iota
	flagTruncated
	flagCached
	flagNoStore
	flagFromDisk
	flagFromPeer
	flagCert     // the result has a certificate
	flagCertSame // the certificate's assignment is the result's
)

func flagIf(on bool, f recordFlags) recordFlags {
	if on {
		return f
	}
	return 0
}

// strRef encodes one string of a record: an id into labels (≥ 0 and
// below ownBase), own[r-ownBase] (≥ ownBase), or the key's prefix of
// length -1-r (< 0), which is how fingerprints are stored: a key starts
// with its request's fingerprint.
type strRef int32

const ownBase = 1 << 30

// labels are the strings a result carries that are not per instance:
// kinds, tiers, classes and every algorithm label the catalog can
// produce. The registry's catalog is fixed after its init, so the table
// is built once here and never grows.
var (
	labels   []string
	labelIDs map[string]strRef
)

func init() {
	add := func(s string) {
		if _, ok := labelIDs[s]; !ok {
			labelIDs[s] = strRef(len(labels))
			labels = append(labels, s)
		}
	}
	labelIDs = map[string]strRef{}
	for _, s := range []string{"", "bipartite", "hypergraph", "memory", "disk", "peer", "none",
		cert.ClassSingleProc, cert.ClassMultiProc, autoAlg} {
		add(s)
	}
	for _, sol := range registry.Solvers() {
		add(sol.Name)
		add(autoAlg + ":" + sol.Name)
		add(autoAlg + ":" + sol.Name + "-incumbent")
	}
}

// ref returns the strRef of s in an entry under key, adding s to own
// when no cheaper form exists.
func (r *record) ref(key, s string) strRef {
	if id, ok := labelIDs[s]; ok {
		return id
	}
	if strings.HasPrefix(key, s) {
		return -1 - strRef(len(s))
	}
	r.own = append(r.own, s)
	return ownBase + strRef(len(r.own)-1)
}

// str is the string ref encodes in an entry under key.
func (r *record) str(key string, ref strRef) string {
	switch {
	case ref >= ownBase:
		return r.own[ref-ownBase]
	case ref >= 0:
		return labels[ref]
	default:
		return key[:-1-ref]
	}
}

// store flattens res into r for an entry under key. The arrays are
// shared with res, which callers already treat as immutable.
func (r *record) store(key string, res *Result) {
	*r = record{
		assign:     res.Assignment,
		loads:      res.Loads,
		makespan:   res.Makespan,
		lowerBound: res.LowerBound,
		elapsed:    res.Elapsed,
		trust:      res.Trust,
	}
	r.kind = r.ref(key, res.Kind)
	r.fp = r.ref(key, res.Fingerprint)
	r.alg = r.ref(key, res.Algorithm)
	r.tier = r.ref(key, res.Tier)
	r.flags = flagIf(res.Optimal, flagOptimal) | flagIf(res.Truncated, flagTruncated) |
		flagIf(res.Cached, flagCached) | flagIf(res.noStore, flagNoStore) |
		flagIf(res.fromDisk, flagFromDisk) | flagIf(res.fromPeer, flagFromPeer)
	c := res.Certificate
	if c == nil {
		return
	}
	r.flags |= flagCert
	if (c.Assignment == nil) == (res.Assignment == nil) && slices.Equal(c.Assignment, res.Assignment) {
		r.flags |= flagCertSame
	} else {
		r.certAssign = c.Assignment
	}
	r.certFP = r.ref(key, c.Fingerprint)
	r.certClass = r.ref(key, c.Class)
	r.certSolve = r.ref(key, c.Solver)
	r.certMakespan, r.certLowerBound = c.Makespan, c.LowerBound
	r.witnessKind, r.witnessNodes = c.Witness.Kind, c.Witness.Nodes
}

// hitResult is the one allocation a hit fills: the Result and the
// certificate it points to.
type hitResult struct {
	res  Result
	cert cert.Certificate
}

// load rebuilds the Result r stores under key. The Result and its
// Certificate are the caller's own; the arrays are shared with the cache
// and must be treated as immutable.
func (r *record) load(key string) *Result {
	h := &hitResult{}
	h.res = Result{
		Kind:        r.str(key, r.kind),
		Fingerprint: r.str(key, r.fp),
		Algorithm:   r.str(key, r.alg),
		Makespan:    r.makespan,
		Assignment:  r.assign,
		Loads:       r.loads,
		LowerBound:  r.lowerBound,
		Trust:       r.trust,
		Optimal:     r.flags&flagOptimal != 0,
		Truncated:   r.flags&flagTruncated != 0,
		Cached:      r.flags&flagCached != 0,
		Tier:        r.str(key, r.tier),
		Elapsed:     r.elapsed,
		noStore:     r.flags&flagNoStore != 0,
		fromDisk:    r.flags&flagFromDisk != 0,
		fromPeer:    r.flags&flagFromPeer != 0,
	}
	if r.flags&flagCert == 0 {
		return &h.res
	}
	h.cert = cert.Certificate{
		Fingerprint: r.str(key, r.certFP),
		Class:       r.str(key, r.certClass),
		Solver:      r.str(key, r.certSolve),
		Assignment:  r.certAssign,
		Makespan:    r.certMakespan,
		LowerBound:  r.certLowerBound,
		Witness:     cert.Witness{Kind: r.witnessKind, Nodes: r.witnessNodes},
	}
	if r.flags&flagCertSame != 0 {
		h.cert.Assignment = r.assign
	}
	h.res.Certificate = &h.cert
	return &h.res
}

// newLRUCache builds a cache holding ~entries results across shards (each
// shard gets the ceiling share, so the true capacity is rounded up to a
// multiple of the shard count). entries < 1 or shards < 1 disable caching:
// every get misses and puts are dropped. Shards start empty and grow as
// entries arrive.
func newLRUCache(entries, shards int) *lruCache {
	c := &lruCache{}
	if entries < 1 || shards < 1 {
		return c
	}
	if shards > entries {
		shards = entries
	}
	per := (entries + shards - 1) / shards
	c.shards = make([]*cacheShard, shards)
	for i := range c.shards {
		c.shards[i] = &cacheShard{cap: per, index: map[string]int32{}, head: -1, tail: -1}
	}
	return c
}

func (c *lruCache) shard(key string) *cacheShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	// Inline FNV-1a over the string: the hash/fnv API would allocate a
	// hasher and a []byte copy on every lookup of the hot serving path.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// get returns the cached result for key, refreshing its recency. The
// Result and its Certificate are a fresh copy the caller may modify; the
// Assignment and Loads slices are shared and must be treated as
// immutable.
func (c *lruCache) get(key string) (*Result, bool) {
	return c.lookup(key, true)
}

// peek is get without touching the hit/miss counters — for peer-serving
// lookups (PeerLookup), which would otherwise pollute this replica's own
// serving stats. Recency is still refreshed: an entry hot across the
// fleet is worth keeping resident.
func (c *lruCache) peek(key string) (*Result, bool) {
	return c.lookup(key, false)
}

func (c *lruCache) lookup(key string, count bool) (*Result, bool) {
	if len(c.shards) == 0 {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	i, ok := s.index[key]
	if !ok {
		if count {
			s.misses++
		}
		s.mu.Unlock()
		return nil, false
	}
	if count {
		s.hits++
	}
	s.moveToFront(i)
	// The copy stays valid after the unlock: a later store replaces the
	// slot's arrays and never writes into them. The Result is built
	// outside the lock.
	sl := s.slots[i]
	s.mu.Unlock()
	return sl.rec.load(sl.key), true
}

// put stores res under key, evicting the least recently used entry of the
// shard when it is full.
func (c *lruCache) put(key string, res *Result) {
	if len(c.shards) == 0 {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[key]; ok {
		s.slots[i].rec.store(key, res)
		s.moveToFront(i)
		return
	}
	var i int32
	if len(s.slots) < s.cap {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.index, s.slots[i].key)
		s.evicted++
	}
	sl := &s.slots[i]
	sl.key = key
	sl.rec.store(key, res)
	s.index[key] = i
	s.pushFront(i)
}

// unlink removes slot i from the recency list.
func (s *cacheShard) unlink(i int32) {
	sl := &s.slots[i]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
}

// pushFront links slot i in as the most recently used.
func (s *cacheShard) pushFront(i int32) {
	sl := &s.slots[i]
	sl.prev, sl.next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

func (s *cacheShard) moveToFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.slots)
		s.mu.Unlock()
	}
	return n
}

// counters returns the aggregated hit/miss/eviction counts.
func (c *lruCache) counters() (hits, misses, evicted uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		evicted += s.evicted
		s.mu.Unlock()
	}
	return
}
