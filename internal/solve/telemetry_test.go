package solve

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"semimatch/internal/telemetry"
)

// TestRunWithTrace asserts Report.Trace carries the documented span tree
// and that the depth-1 spans' wall times are covered by the root's —
// the "-trace sums to ≈ report wall" acceptance check.
func TestRunWithTrace(t *testing.T) {
	h := randomHyper(3, 12, 4, 3, 3, 30)
	p := Hyper(h)
	rep, err := Run(context.Background(), p, WithTrace(), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("WithTrace set but Report.Trace is nil")
	}
	if rep.Trace.Name != "solve" {
		t.Fatalf("root span = %q", rep.Trace.Name)
	}
	kids := rep.Trace.Children()
	names := map[string]*telemetry.Span{}
	var sum time.Duration
	for _, c := range kids {
		names[c.Name] = c
		sum += c.Wall()
	}
	if names["race"] == nil {
		t.Fatalf("missing race span; children: %v", spanNames(kids))
	}
	if names["verify"] == nil {
		t.Fatalf("missing verify span; children: %v", spanNames(kids))
	}
	if es := names["exact"]; es != nil {
		sub := spanNames(es.Children())
		for _, want := range []string{"compile", "greedy", "search"} {
			if !contains(sub, want) {
				t.Fatalf("exact span missing %q child; has %v", want, sub)
			}
		}
	}
	// Phase spans run sequentially inside the root, so their walls can
	// never exceed it.
	if root := rep.Trace.Wall(); sum > root+time.Millisecond {
		t.Fatalf("children wall %v exceeds root wall %v", sum, root)
	}

	// NDJSON emission of a real trace round-trips.
	var buf bytes.Buffer
	if err := rep.Trace.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n < 3 {
		t.Fatalf("NDJSON lines = %d, want several", n)
	}

	// Without WithTrace no tree is built.
	rep2, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Trace != nil {
		t.Fatal("Report.Trace set without WithTrace")
	}
}

func spanNames(spans []*telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestRunWithProgress asserts WithProgress snapshots flow out of the
// auto policy's exact stage: a search that ran delivers at least its
// final snapshot.
func TestRunWithProgress(t *testing.T) {
	g := weightedGraph(4, 14, 4, 4, 40)
	p := Bipartite(g)
	var snaps int
	rep, err := Run(context.Background(), p,
		WithProgress(func(telemetry.SearchProgress) { snaps++ }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Nodes > 0 && snaps == 0 {
		t.Fatal("exact stage ran but no progress snapshots were delivered")
	}
}

// TestFeaturesAndLedgerRecord checks the ledger feature extraction on
// both classes.
func TestFeaturesAndLedgerRecord(t *testing.T) {
	g := weightedGraph(5, 10, 3, 3, 20)
	p := Bipartite(g)
	f := Features(p)
	if f.Class != "SINGLEPROC" || f.Tasks != 10 || f.Procs != 3 {
		t.Fatalf("features = %+v", f)
	}
	if f.Edges != len(g.Adj) {
		t.Fatalf("edges = %d, want %d", f.Edges, len(g.Adj))
	}
	if f.Density <= 0 || f.Density > 1 {
		t.Fatalf("density = %v", f.Density)
	}
	if f.WMin < 1 || f.WMax > 20 || f.WSpread < 1 {
		t.Fatalf("weights = %+v", f)
	}

	h := randomHyper(6, 8, 4, 3, 3, 1) // unit weights
	ph := Hyper(h)
	fh := Features(ph)
	if fh.Class != "MULTIPROC" || fh.WMin != 1 || fh.WMax != 1 || fh.WSpread != 1 {
		t.Fatalf("hyper features = %+v", fh)
	}

	rep, err := Run(context.Background(), ph, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := ph.Fingerprint()
	rec := NewLedgerRecord("cli", fp, ph, rep)
	if rec.Source != "cli" || rec.Fingerprint != fp {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Algorithm != rep.Solver || rec.Makespan != rep.Makespan {
		t.Fatalf("record = %+v vs report %+v", rec, rep)
	}
	if rec.Status != rep.Status.String() || rec.WallS < 0 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Trust == "" {
		t.Fatal("verified report produced record without trust tier")
	}
}
