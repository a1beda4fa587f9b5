package encode

import (
	"runtime"
	"testing"

	"semimatch/internal/hypergraph"
)

// frontDoor is the per-request work semiserve does before its cache
// lookup: parse the body, canonicalize, fingerprint.
func frontDoor(body []byte) (string, error) {
	v, err := Parse(body)
	if err != nil {
		return "", err
	}
	canon, _, err := CanonicalHypergraph(v.(*hypergraph.Hypergraph))
	if err != nil {
		return "", err
	}
	return FingerprintCanonicalHypergraph(canon), nil
}

var frontDoorSink string

func BenchmarkFrontDoor(b *testing.B) {
	body := []byte(hotBody)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		fp, err := frontDoor(body)
		if err != nil {
			b.Fatal(err)
		}
		frontDoorSink = fp
	}
}

// allocatedBytes returns the bytes the heap handed out while f ran.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrontDoorAllocationBudget keeps the per-request parse, canonicalize
// and fingerprint of a 12-task body small: a 64 KiB line buffer or a
// per-edge allocation creeping back into it fails here.
func TestFrontDoorAllocationBudget(t *testing.T) {
	const (
		maxBytes  = 16 << 10
		maxAllocs = 100
		runs      = 50
	)
	body := []byte(hotBody)
	run := func() {
		if _, err := frontDoor(body); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up lazily initialised state outside the measurement
	if allocs := testing.AllocsPerRun(runs, run); allocs > maxAllocs {
		t.Errorf("front door allocates %.0f times per request, budget %d", allocs, maxAllocs)
	}
	if perRun := allocatedBytes(func() {
		for i := 0; i < runs; i++ {
			run()
		}
	}) / runs; perRun > maxBytes {
		t.Errorf("front door allocates %d bytes per request, budget %d", perRun, maxBytes)
	}
}

// TestHostileHeaderAllocation: a header declaring far more tasks than the
// body has edge lines is rejected before the builders size their arrays
// from it. Both bodies used to allocate hundreds of megabytes; the
// bipartite one was even accepted.
func TestHostileHeaderAllocation(t *testing.T) {
	for _, body := range []string{
		"hypergraph 67108864 1 1\n0 1 1 0\n",
		"bipartite 67108864 1 unit\n0 0\n",
	} {
		var err error
		n := allocatedBytes(func() { _, err = Parse([]byte(body)) })
		if err == nil {
			t.Errorf("%q accepted", body)
		}
		if n >= 1<<20 {
			t.Errorf("%q allocated %d bytes before failing", body, n)
		}
	}
}
