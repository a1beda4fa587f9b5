package service

import (
	"container/list"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"semimatch/internal/cert"
	"semimatch/internal/hypergraph"
)

// TestCacheEvictionOrder pins the LRU contract on a single shard: the
// least recently *used* entry goes first, and a get refreshes recency.
func TestCacheEvictionOrder(t *testing.T) {
	c := newLRUCache(2, 1)
	ra, rb, rc, rd := &Result{Makespan: 1}, &Result{Makespan: 2}, &Result{Makespan: 3}, &Result{Makespan: 4}
	c.put("a", ra)
	c.put("b", rb)
	c.put("c", rc) // evicts a (oldest)
	if _, ok := c.get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if _, _, ev := c.counters(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if r, ok := c.get("b"); !ok || r.Makespan != 2 {
		t.Fatal("b should still be cached")
	}
	c.put("d", rd) // b was just used, so c is now the LRU entry
	if _, ok := c.get("c"); ok {
		t.Fatal("c should have been evicted after b was refreshed")
	}
	if r, ok := c.get("b"); !ok || r.Makespan != 2 {
		t.Fatal("b should survive")
	}
	if r, ok := c.get("d"); !ok || r.Makespan != 4 {
		t.Fatal("d should be cached")
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}

// TestCacheUpdateExisting: putting an existing key replaces the value
// without growing the shard.
func TestCacheUpdateExisting(t *testing.T) {
	c := newLRUCache(2, 1)
	c.put("a", &Result{Makespan: 1})
	c.put("a", &Result{Makespan: 9})
	if r, ok := c.get("a"); !ok || r.Makespan != 9 {
		t.Fatal("update lost")
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	if _, _, ev := c.counters(); ev != 0 {
		t.Fatalf("evictions = %d, want 0", ev)
	}
}

// TestCacheDisabled: non-positive capacity disables caching.
func TestCacheDisabled(t *testing.T) {
	c := newLRUCache(-1, 4)
	c.put("a", &Result{})
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache returned a value")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

// TestCacheShardedStress hammers the sharded cache from many goroutines;
// run under -race this is the shard-safety test the CI race job relies
// on.
func TestCacheShardedStress(t *testing.T) {
	c := newLRUCache(64, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%96) // more keys than capacity
				if r, ok := c.get(key); ok && r == nil {
					t.Error("nil result cached")
					return
				}
				c.put(key, &Result{Makespan: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	if n := c.len(); n > 64+7 { // per-shard rounding may add a few slots
		t.Fatalf("cache grew past capacity: %d", n)
	}
	hits, misses, _ := c.counters()
	if hits+misses != 8*2000 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*2000)
	}
}

// refLRU is the reference the fuzz test holds lruCache to: the sharded
// LRU it replaced, one container/list per shard with the same shard
// choice (FNV-1a of the key) and the same capacity rounding.
type refLRU struct {
	shards []*refShard
}

type refShard struct {
	cap                   int
	ll                    *list.List // front = most recently used
	items                 map[string]*list.Element
	hits, misses, evicted uint64
}

type refEntry struct {
	key string
	res *Result
}

func newRefLRU(entries, shards int) *refLRU {
	shards = min(shards, entries)
	per := (entries + shards - 1) / shards
	r := &refLRU{}
	for i := 0; i < shards; i++ {
		r.shards = append(r.shards, &refShard{cap: per, ll: list.New(), items: map[string]*list.Element{}})
	}
	return r
}

func (r *refLRU) shard(key string) *refShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return r.shards[h%uint32(len(r.shards))]
}

func (r *refLRU) get(key string, count bool) (*Result, bool) {
	s := r.shard(key)
	el, ok := s.items[key]
	if count && ok {
		s.hits++
	} else if count {
		s.misses++
	}
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*refEntry).res, true
}

func (r *refLRU) put(key string, res *Result) {
	s := r.shard(key)
	if el, ok := s.items[key]; ok {
		el.Value.(*refEntry).res = res
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*refEntry).key)
		s.evicted++
	}
	s.items[key] = s.ll.PushFront(&refEntry{key: key, res: res})
}

// fuzzKey is one of a few keys shaped like the service's: fingerprint,
// algorithm and budget class.
func fuzzKey(k byte) string {
	return fmt.Sprintf("%02x%062d|auto|inf", k%6, 0)
}

// fuzzResult builds a Result from v that exercises every field of the
// flat record: label and non-label strings, a fingerprint that is or is
// not the key's prefix, nil and empty slices, and certificates whose
// assignment is the result's, an equal copy, a different one or nil.
func fuzzResult(key string, v byte) *Result {
	pick := func(i byte, ss ...string) string { return ss[int(i)%len(ss)] }
	res := &Result{
		Kind:        pick(v, "hypergraph", "bipartite", "", "odd-kind"),
		Fingerprint: pick(v/4, key[:64], "", "not-the-key"),
		Algorithm:   pick(v/3, "auto:EVG", "EVG", "auto", "custom-solver"),
		Makespan:    int64(v),
		LowerBound:  int64(v / 2),
		Trust:       cert.Tier(v % 3),
		Optimal:     v&1 != 0,
		Truncated:   v&2 != 0,
		Cached:      v&4 != 0,
		Tier:        pick(v/5, "", "memory", "elsewhere"),
		Elapsed:     time.Duration(v) * time.Millisecond,
		noStore:     v&8 != 0,
		fromDisk:    v&16 != 0,
		fromPeer:    v&32 != 0,
	}
	switch v % 3 {
	case 1:
		res.Assignment, res.Loads = []int32{}, []int64{}
	case 2:
		res.Assignment, res.Loads = []int32{1, int32(v), 0}, []int64{int64(v), 2}
	}
	c := &cert.Certificate{
		Fingerprint: pick(v/7, key[:64], "elsewhere-fp"),
		Class:       pick(v, cert.ClassMultiProc, cert.ClassSingleProc, "odd-class"),
		Solver:      pick(v/2, "EVG", "BnB-MP", "custom-solver"),
		Makespan:    int64(v) + 1,
		LowerBound:  int64(v) - 1,
		Witness:     cert.Witness{Kind: cert.WitnessKind(v % 6), Nodes: int64(v) * 3},
	}
	switch (v / 11) % 5 {
	case 0:
		c = nil
	case 1:
		c.Assignment = res.Assignment
	case 2:
		c.Assignment = append([]int32(nil), res.Assignment...)
	case 3:
		c.Assignment = []int32{9}
	}
	res.Certificate = c
	return res
}

// FuzzLRU runs random get/peek/put sequences over a few keys against
// refLRU: every returned result, the counters, len and each shard's
// recency order must match.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 7, 2, 1, 3, 0, 0, 1, 1})
	f.Add([]byte{3, 2, 2, 0, 1, 2, 1, 2, 2, 2, 3, 0, 0, 1, 1, 2, 4, 5, 1, 4})
	f.Add([]byte{7, 1, 2, 5, 200, 2, 4, 33, 1, 5, 0, 4, 2, 3, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		entries, shards := 1+int(data[0]%8), 1+int(data[1]%3)
		c, ref := newLRUCache(entries, shards), newRefLRU(entries, shards)
		for ops := data[2:]; len(ops) >= 2; ops = ops[2:] {
			key := fuzzKey(ops[1])
			switch op := ops[0] % 3; op {
			case 0, 1:
				got, ok := c.lookup(key, op == 0)
				want, wantOK := ref.get(key, op == 0)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("lookup(%q, %v) = %+v, %v; want %+v, %v", key[:2], op == 0, got, ok, want, wantOK)
				}
			case 2:
				v := byte(0)
				if len(ops) > 2 {
					v, ops = ops[2], ops[1:]
				}
				res := fuzzResult(key, v)
				c.put(key, res)
				ref.put(key, res)
			}
			checkLRU(t, c, ref)
		}
	})
}

// checkLRU compares c with ref: counters, len and every shard's keys
// from most to least recently used.
func checkLRU(t *testing.T, c *lruCache, ref *refLRU) {
	t.Helper()
	var hits, misses, evicted uint64
	n := 0
	for i, rs := range ref.shards {
		hits, misses, evicted = hits+rs.hits, misses+rs.misses, evicted+rs.evicted
		n += rs.ll.Len()
		var want, got []string
		for el := rs.ll.Front(); el != nil; el = el.Next() {
			want = append(want, el.Value.(*refEntry).key[:2])
		}
		s := c.shards[i]
		for j := s.head; j >= 0; j = s.slots[j].next {
			got = append(got, s.slots[j].key[:2])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d recency order %v, want %v", i, got, want)
		}
	}
	h, m, e := c.counters()
	if h != hits || m != misses || e != evicted || c.len() != n {
		t.Fatalf("hits/misses/evicted/len = %d/%d/%d/%d, want %d/%d/%d/%d", h, m, e, c.len(), hits, misses, evicted, n)
	}
}

// fillCache answers n distinct fresh solves through a Service with the
// default cache and returns it with every request and answer dropped:
// the cache holds the only references to the results it keeps.
func fillCache(tb testing.TB, n int) *Service {
	tb.Helper()
	s := New(Options{})
	for i := 0; i < n; i++ {
		b := hypergraph.NewBuilder(6, 3)
		for t := 0; t < 6; t++ {
			b.AddEdge(t, []int{t % 3}, int64(1+(i>>(2*t))&3))
			b.AddEdge(t, []int{(t + 1) % 3, (t + 2) % 3}, int64(2+t))
		}
		h, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Solve(context.Background(), h, ""); err != nil {
			tb.Fatal(err)
		}
	}
	// Keys spread over the shards unevenly, so a few entries are evicted
	// before the cache as a whole is full.
	if st := s.Stats(); st.Solves != uint64(n) || st.CacheEntries+int(st.CacheEvictions) != n {
		tb.Fatalf("%d solves left %d entries and %d evictions, want %d solves", st.Solves, st.CacheEntries, st.CacheEvictions, n)
	}
	return s
}

// liveObjects is the number of live heap objects after a full
// collection.
func liveObjects() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}

// TestCacheEntryObjects bounds what a full cache costs every garbage
// collection: the heap objects each entry keeps alive. The flat layout
// keeps an entry to its key string and its assignment and loads arrays;
// a layout with a list element, an entry, a Result and a certificate per
// entry keeps about 10.
func TestCacheEntryObjects(t *testing.T) {
	const maxPerEntry = 4.0
	before := liveObjects()
	s := fillCache(t, DefaultCacheEntries)
	per := float64(liveObjects()-before) / float64(s.Stats().CacheEntries)
	t.Logf("%.2f live heap objects per cache entry", per)
	if per > maxPerEntry {
		t.Errorf("%.2f live heap objects per cache entry, budget %.0f", per, maxPerEntry)
	}
}

// BenchmarkFullCacheGC times a full collection with a full default-sized
// cache live and reports the live heap objects: the cost the cache adds
// to every collection a serving process runs.
func BenchmarkFullCacheGC(b *testing.B) {
	s := fillCache(b, DefaultCacheEntries)
	objects := liveObjects()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "gc-ms")
	b.ReportMetric(float64(objects), "live-objects")
	runtime.KeepAlive(s)
}
