package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := StartSpan("solve")
	c1 := root.StartChild("compile")
	c1.SetAttr("nodes", 10)
	c1.End()
	c2 := root.StartChild("search")
	c2.SetAttr("nodes", 42)
	c2.SetAttr("nodes", 43) // overwrite
	c2.End()
	root.AddChild("verify", time.Now(), 5*time.Millisecond)
	root.End()

	kids := root.Children()
	if len(kids) != 3 {
		t.Fatalf("children = %d, want 3", len(kids))
	}
	if v, ok := c2.Attr("nodes"); !ok || v != 43 {
		t.Fatalf("attr nodes = %v %v, want 43 true", v, ok)
	}
	if _, ok := c2.Attr("missing"); ok {
		t.Fatal("unexpected attr")
	}
	if kids[2].Wall() != 5*time.Millisecond {
		t.Fatalf("pre-measured child wall = %v", kids[2].Wall())
	}
	if root.Wall() <= 0 {
		t.Fatalf("root wall = %v", root.Wall())
	}

	// End is idempotent.
	w := root.Wall()
	time.Sleep(2 * time.Millisecond)
	root.End()
	if root.Wall() != w {
		t.Fatal("End not idempotent")
	}

	// Adopt grafts an external tree; nil is ignored.
	req := StartSpan("request")
	req.Adopt(root)
	req.Adopt(nil)
	if got := req.Children(); len(got) != 1 || got[0] != root {
		t.Fatalf("adopt: children = %v", got)
	}
}

func TestWriteNDJSON(t *testing.T) {
	root := StartSpan("solve")
	c := root.StartChild("exact")
	c.StartChild("search").End()
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := root.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []spanRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r spanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 3 {
		t.Fatalf("lines = %d, want 3", len(recs))
	}
	want := []struct {
		name, path string
		depth      int
	}{
		{"solve", "solve", 0},
		{"exact", "solve/exact", 1},
		{"search", "solve/exact/search", 2},
	}
	for i, w := range want {
		if recs[i].Name != w.name || recs[i].Path != w.path || recs[i].Depth != w.depth {
			t.Fatalf("line %d = %+v, want %+v", i, recs[i], w)
		}
		if recs[i].WallS < 0 {
			t.Fatalf("line %d wall_s = %v", i, recs[i].WallS)
		}
	}
	if !strings.Contains(root.Format(), "search") {
		t.Fatal("Format missing child")
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_requests_total", "Total requests.", func() uint64 { return 3 })
	r.CounterFunc("test_hits_total", "Hits.", func() uint64 { return 7 })
	r.GaugeFunc("test_inflight", "In flight.", func() float64 { return 2.5 })
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_requests_total Total requests.",
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		"test_hits_total 7",
		"# TYPE test_inflight gauge",
		"test_inflight 2.5",
		"test_uptime_seconds 12",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="10"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 100.55",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.count.Load() != 3 || math.Abs(h.Sum()-100.55) > 1e-9 {
		t.Fatalf("count=%d sum=%v", h.count.Load(), h.Sum())
	}
}

// TestHistogramBucketMonotone asserts the cumulative bucket invariant
// that makes the output valid Prometheus histogram text.
func TestHistogramBucketMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono_seconds", "m", nil)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) * 0.07)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	sc := bufio.NewScanner(&buf)
	buckets := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mono_seconds_bucket") {
			continue
		}
		buckets++
		var v int64
		fields := strings.Fields(line)
		if _, err := json.Number(fields[len(fields)-1]).Int64(); err != nil {
			t.Fatalf("bad bucket value in %q", line)
		}
		n, _ := json.Number(fields[len(fields)-1]).Int64()
		v = n
		if v < last {
			t.Fatalf("bucket counts not monotone at %q (prev %d)", line, last)
		}
		last = v
	}
	if buckets != len(DefLatencyBuckets)+1 {
		t.Fatalf("buckets = %d, want %d", buckets, len(DefLatencyBuckets)+1)
	}
	if last != 1000 {
		t.Fatalf("+Inf bucket = %d, want 1000", last)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dup_total", "d", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.GaugeFunc("dup_total", "d", func() float64 { return 0 })
}

// TestRegistryRace hammers the registry from concurrent observers and
// scrapers — the shape of a live server with solves in flight. Run
// under -race in CI.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var requests, inflight atomic.Uint64
	r.CounterFunc("race_requests_total", "r", requests.Load)
	r.GaugeFunc("race_inflight", "r", func() float64 { return math.Float64frombits(inflight.Load()) })
	h := r.Histogram("race_latency_seconds", "r", nil)
	var n sync.WaitGroup
	for i := 0; i < 8; i++ {
		n.Add(1)
		go func(i int) {
			defer n.Done()
			for j := 0; j < 2000; j++ {
				requests.Add(1)
				inflight.Store(math.Float64bits(float64(j)))
				h.Observe(float64(j) * 0.001)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		n.Add(1)
		go func() {
			defer n.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	n.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "race_requests_total 16000\n") {
		t.Fatalf("counter not at 16000:\n%s", buf.String())
	}
	if h.count.Load() != 16000 {
		t.Fatalf("histogram count = %d, want 16000", h.count.Load())
	}
}

// TestSpanRace exercises concurrent child creation, attrs, and NDJSON
// snapshots on a live span tree.
func TestSpanRace(t *testing.T) {
	root := StartSpan("solve")
	var n sync.WaitGroup
	for i := 0; i < 4; i++ {
		n.Add(1)
		go func(i int) {
			defer n.Done()
			for j := 0; j < 200; j++ {
				c := root.StartChild("phase")
				c.SetAttr("i", i)
				c.End()
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		n.Add(1)
		go func() {
			defer n.Done()
			for j := 0; j < 20; j++ {
				var buf bytes.Buffer
				if err := root.WriteNDJSON(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	n.Wait()
	root.End()
	if got := len(root.Children()); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	recs := []SolveRecord{
		{
			Source:      "bench",
			Fingerprint: "abc123",
			InstanceFeatures: InstanceFeatures{
				Class: "MULTIPROC", Tasks: 12, Procs: 4, Edges: 36,
				Density: 0.75, WMin: 1, WMax: 40, WSpread: 40,
			},
			Algorithm: "bnb-mp", WallS: 0.25, Nodes: 1234,
			Makespan: 17, Bound: 17, Status: "optimal", Trust: "verified",
		},
		{
			Source: "service",
			InstanceFeatures: InstanceFeatures{
				Class: "SINGLEPROC", Tasks: 100, Procs: 8, Edges: 800,
				Density: 1, WMin: 1, WMax: 1, WSpread: 1,
			},
			Algorithm: "auto", WallS: 0.001, Nodes: 0,
			Makespan: 13, Status: "heuristic",
		},
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
	if got[0].Time == "" {
		t.Fatal("Append did not stamp time")
	}
	if got[0].Fingerprint != "abc123" || got[0].Nodes != 1234 || got[0].Trust != "verified" {
		t.Fatalf("record 0 = %+v", got[0])
	}
	if got[1].Class != "SINGLEPROC" || got[1].Algorithm != "auto" {
		t.Fatalf("record 1 = %+v", got[1])
	}
}

func TestLedgerFile(t *testing.T) {
	path := t.TempDir() + "/ledger.jsonl"
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	var n sync.WaitGroup
	for i := 0; i < 8; i++ {
		n.Add(1)
		go func(i int) {
			defer n.Done()
			for j := 0; j < 25; j++ {
				if err := l.Append(SolveRecord{Source: "cli", Algorithm: "greedy", Makespan: int64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	n.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open appends rather than truncating.
	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(SolveRecord{Source: "cli", Algorithm: "greedy"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadLedger(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 201 {
		t.Fatalf("records = %d, want 201", len(recs))
	}
}

func TestReadLedgerMalformed(t *testing.T) {
	if _, err := ReadLedger(strings.NewReader("{\"source\":\"x\"}\nnot json\n")); err == nil {
		t.Fatal("expected error on malformed line")
	}
}
