package cert

import (
	"encoding/json"
	"strings"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/hypergraph"
)

// testGraph is a small weighted SINGLEPROC instance: 3 tasks, 2 procs.
func testGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	b := bipartite.NewBuilder(3, 2)
	b.AddWeightedEdge(0, 0, 4)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 0, 3)
	b.AddWeightedEdge(1, 1, 3)
	b.AddWeightedEdge(2, 1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// matchingGraph is a SINGLEPROC instance only the matching bound solves.
// Tasks 0 and 1 are eligible only on proc 0 (weight 3 each); task 2 only
// on proc 1 (weight 1). OPT = 6 (proc 0 carries both 3s). avg = ⌈7/2⌉ =
// 4, maxElem = 3, packing([3,3,1], 2) = 4: all open. The flow relaxation
// must push 6 units through proc 0, so the matching bound is exactly 6.
func matchingGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	b := bipartite.NewBuilder(3, 2)
	b.AddWeightedEdge(0, 0, 3)
	b.AddWeightedEdge(1, 0, 3)
	b.AddWeightedEdge(2, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testHyper is a small MULTIPROC instance: 2 tasks, 2 procs.
func testHyper(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(2, 2)
	b.AddEdge(0, []int{0, 1}, 3)
	b.AddEdge(0, []int{0}, 8)
	b.AddEdge(1, []int{1}, 5)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestIssueVerifyRoundTrip: a certificate issued for a correct schedule
// verifies, and an optimal schedule whose makespan meets a cheap bound
// earns TierVerified.
func TestIssueVerifyRoundTrip(t *testing.T) {
	g := testGraph(t)
	// Optimal by hand: t0→0 (4), t1→1 (3), t2→1 (2) → loads 4,5... try
	// t0→0, t1→0, t2→1: loads 7,2. Best is 5: t0→0 (4), t1→1 (3)+t2→1 (2)
	// = 5 vs 4 → makespan 5.
	a := []int32{0, 1, 1}
	m := core.Makespan(g, core.Assignment(a))
	if m != 5 {
		t.Fatalf("hand schedule makespan = %d, want 5", m)
	}
	avg, maxElem, err := Bounds(g)
	if err != nil {
		t.Fatal(err)
	}
	if avg != 5 || maxElem != 4 {
		t.Fatalf("bounds = (%d, %d), want (5, 4)", avg, maxElem)
	}

	c := Issue(g, a, m, true, 123, "test")
	if c == nil {
		t.Fatal("Issue returned nil")
	}
	if c.Witness.Kind != WitnessAverageLoad {
		t.Fatalf("witness = %s, want average-load (avg bound closes the gap)", c.Witness.Kind)
	}
	if c.LowerBound != m {
		t.Fatalf("certificate lower bound = %d, want %d", c.LowerBound, m)
	}
	tier, err := Verify(g, c)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if tier != TierVerified {
		t.Fatalf("tier = %s, want verified", tier)
	}
}

// TestIssueExhaustiveAttested: when no cheap bound closes the gap, an
// optimal result gets an exhaustive witness and verifies at TierAttested.
func TestIssueExhaustiveAttested(t *testing.T) {
	h := testHyper(t)
	// Optimal: t0 picks edge 0 (w3 on both procs), t1 edge 2 (w5 on p1):
	// loads 3, 8 → makespan 8. Bounds: avg = ⌈(min(6,8)+5)/2⌉ = ⌈11/2⌉ =
	// 6; maxElem = max(min(3,8), 5) = 5. Neither equals 8.
	a := []int32{0, 2}
	m := core.HyperMakespan(h, core.HyperAssignment(a))
	if m != 8 {
		t.Fatalf("makespan = %d, want 8", m)
	}
	c := Issue(h, a, m, true, 77, "bnb")
	if c.Witness.Kind != WitnessExhaustive || c.Witness.Nodes != 77 {
		t.Fatalf("witness = %+v, want exhaustive/77", c.Witness)
	}
	if c.LowerBound != 8 {
		t.Fatalf("lower bound = %d, want 8 (gap closed by attestation)", c.LowerBound)
	}
	tier, err := Verify(h, c)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if tier != TierAttested {
		t.Fatalf("tier = %s, want attested", tier)
	}
}

// TestIssueHeuristicNoClaim: a non-optimal result away from the bounds
// gets no witness and verifies at TierHeuristic.
func TestIssueHeuristicNoClaim(t *testing.T) {
	h := testHyper(t)
	// t0 edge 1 (w8 on p0), t1 edge 2 (w5 on p1): loads 8, 5 → 8. Same
	// makespan as optimal here, but issue as non-optimal: the certificate
	// carries the larger cheap bound, avg 6 (maxElem is 5).
	a := []int32{1, 2}
	m := core.HyperMakespan(h, core.HyperAssignment(a))
	c := Issue(h, a, m, false, 0, "SGH")
	if c.Witness.Kind != WitnessNone {
		t.Fatalf("witness = %s, want none", c.Witness.Kind)
	}
	if c.LowerBound != 6 {
		t.Fatalf("lower bound = %d, want the larger cheap bound 6", c.LowerBound)
	}
	tier, err := Verify(h, c)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if tier != TierHeuristic {
		t.Fatalf("tier = %s, want heuristic", tier)
	}
}

// TestVerifyRejectsLies: tampered certificates fail with descriptive
// errors — wrong makespan, unsupported bound, witness that does not hold,
// infeasible assignment, wrong fingerprint, wrong class.
func TestVerifyRejectsLies(t *testing.T) {
	g := testGraph(t)
	a := []int32{0, 1, 1}
	m := core.Makespan(g, core.Assignment(a))
	good := Issue(g, a, m, true, 0, "test")

	cases := []struct {
		name   string
		mutate func(c *Certificate)
		want   string
	}{
		{"makespan inflated", func(c *Certificate) { c.Makespan = 4 }, "makespan mismatch"},
		{"bound above makespan", func(c *Certificate) { c.LowerBound = 6 }, "exceeds makespan"},
		{"witness does not hold", func(c *Certificate) {
			c.Witness.Kind = WitnessMaxElement // maxElem is 4, makespan 5
		}, "max-element witness does not hold"},
		{"infeasible assignment", func(c *Certificate) {
			c.Assignment = []int32{0, 0, 0} // task 2 is not adjacent to proc 0
		}, "infeasible"},
		{"wrong fingerprint", func(c *Certificate) { c.Fingerprint = strings.Repeat("ab", 32) }, "fingerprint mismatch"},
		{"wrong class", func(c *Certificate) { c.Class = ClassMultiProc }, "does not match"},
		{"unsupported claim", func(c *Certificate) {
			c.Witness.Kind = WitnessNone
			c.LowerBound = 5 // OK numerically (== best bound)...
			c.Makespan = 5
			c.Assignment = []int32{0, 0, 1} // loads 7, 2 → makespan 7 ≠ 5
		}, "makespan mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := *good
			tc.mutate(&c)
			if _, err := Verify(g, &c); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify err = %v, want substring %q", err, tc.want)
			}
		})
	}

	// The untampered certificate still verifies (mutations copied).
	if _, err := Verify(g, good); err != nil {
		t.Fatalf("control certificate failed: %v", err)
	}

	// A no-claim certificate's bound is checked against the cheap bounds
	// only, even where a strong bound would support it: here avg is 4,
	// maxElem 3 and the matching bound 6.
	t.Run("no-claim bound above the cheap bounds", func(t *testing.T) {
		mg := matchingGraph(t)
		c := Issue(mg, []int32{0, 0, 1}, 6, false, 0, "test")
		if c.Witness.Kind != WitnessNone || c.LowerBound != 4 {
			t.Fatalf("issued witness %s, bound %d; want none, 4", c.Witness.Kind, c.LowerBound)
		}
		c.LowerBound = 5
		if _, err := Verify(mg, c); err == nil || !strings.Contains(err.Error(), "not supported by re-derivable bounds") {
			t.Fatalf("Verify err = %v, want an unsupported-bound error", err)
		}
	})
}

// TestVerifyUpgradesBeyondClaim: a heuristic certificate whose schedule
// happens to hit a re-derivable bound is upgraded to TierVerified, and an
// exhaustive certificate likewise when a bound closes the gap after all.
func TestVerifyUpgradesBeyondClaim(t *testing.T) {
	g := testGraph(t)
	a := []int32{0, 1, 1} // makespan 5 == avg bound
	c := Issue(g, a, 5, false, 0, "lucky-heuristic")
	// Issue already detects the bound; force the weaker claims by hand to
	// simulate a producer that did not notice.
	c.Witness = Witness{Kind: WitnessNone}
	c.LowerBound = 4
	tier, err := Verify(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierVerified {
		t.Fatalf("tier = %s, want verified (re-derived bound equals makespan)", tier)
	}

	c.Witness = Witness{Kind: WitnessExhaustive, Nodes: 9}
	c.LowerBound = 5
	tier, err = Verify(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierVerified {
		t.Fatalf("tier = %s, want verified (bound beats attestation)", tier)
	}
}

// TestEnumJSON: witness kinds and tiers marshal as strings and reject
// unknown labels, so foreign or stale disk entries fail loudly.
func TestEnumJSON(t *testing.T) {
	for k, want := range map[WitnessKind]string{
		WitnessNone:        `"none"`,
		WitnessAverageLoad: `"average-load"`,
		WitnessMaxElement:  `"max-element"`,
		WitnessExhaustive:  `"exhaustive"`,
		WitnessPacking:     `"packing"`,
		WitnessMatching:    `"matching"`,
	} {
		b, err := json.Marshal(k)
		if err != nil || string(b) != want {
			t.Fatalf("Marshal(%d) = %s, %v; want %s", k, b, err, want)
		}
		var back WitnessKind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("round trip of %s: %v, %v", want, back, err)
		}
	}
	for tier, want := range map[Tier]string{
		TierHeuristic: `"heuristic"`,
		TierAttested:  `"attested"`,
		TierVerified:  `"verified"`,
	} {
		b, err := json.Marshal(tier)
		if err != nil || string(b) != want {
			t.Fatalf("Marshal(%d) = %s, %v; want %s", tier, b, err, want)
		}
		var back Tier
		if err := json.Unmarshal(b, &back); err != nil || back != tier {
			t.Fatalf("round trip of %s: %v, %v", want, back, err)
		}
	}
	var k WitnessKind
	if err := json.Unmarshal([]byte(`"telepathy"`), &k); err == nil {
		t.Fatal("unknown witness kind accepted")
	}
	var tr Tier
	if err := json.Unmarshal([]byte(`"sworn"`), &tr); err == nil {
		t.Fatal("unknown tier accepted")
	}
}

// TestCertificateJSONRoundTrip: a full certificate survives JSON — the
// disk tier's persistence path.
func TestCertificateJSONRoundTrip(t *testing.T) {
	g := testGraph(t)
	c := Issue(g, []int32{0, 1, 1}, 5, true, 42, "bnb-par")
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Certificate
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != c.Fingerprint || back.Class != c.Class ||
		back.Makespan != c.Makespan || back.LowerBound != c.LowerBound ||
		back.Witness != c.Witness || len(back.Assignment) != len(c.Assignment) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, *c)
	}
	if tier, err := Verify(g, &back); err != nil || tier != TierVerified {
		t.Fatalf("deserialized certificate: tier %s, err %v", tier, err)
	}
}

// TestClaimedTier: the display tier matches what verification would
// grant for honest certificates.
func TestClaimedTier(t *testing.T) {
	for _, tc := range []struct {
		kind WitnessKind
		want Tier
	}{
		{WitnessNone, TierHeuristic},
		{WitnessAverageLoad, TierVerified},
		{WitnessMaxElement, TierVerified},
		{WitnessPacking, TierVerified},
		{WitnessMatching, TierVerified},
		{WitnessExhaustive, TierAttested},
	} {
		c := &Certificate{Witness: Witness{Kind: tc.kind}}
		if got := c.ClaimedTier(); got != tc.want {
			t.Fatalf("ClaimedTier(%s) = %s, want %s", tc.kind, got, tc.want)
		}
	}
}

// TestIssuePackingWitness: when neither cheap bound closes the gap but
// the bin-packing bound does, Issue claims WitnessPacking and Verify
// re-derives it to TierVerified — no attestation needed.
func TestIssuePackingWitness(t *testing.T) {
	// 3 identical tasks of weight 4 on 2 fully-eligible procs: two tasks
	// must share, so OPT = 8. avg = ⌈12/2⌉ = 6 and maxElem = 4 leave the
	// gap open; the 2-tuple packing bound closes it at 8.
	b := bipartite.NewBuilder(3, 2)
	for task := 0; task < 3; task++ {
		b.AddWeightedEdge(task, 0, 4)
		b.AddWeightedEdge(task, 1, 4)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := []int32{0, 1, 0} // loads 8, 4
	m := core.Makespan(g, core.Assignment(a))
	if m != 8 {
		t.Fatalf("makespan = %d, want 8", m)
	}
	c := Issue(g, a, m, true, 99, "bnb")
	if c.Witness.Kind != WitnessPacking {
		t.Fatalf("witness = %s, want packing", c.Witness.Kind)
	}
	if c.LowerBound != m {
		t.Fatalf("lower bound = %d, want %d (gap closed)", c.LowerBound, m)
	}
	tier, err := Verify(g, c)
	if err != nil || tier != TierVerified {
		t.Fatalf("Verify: tier %s, err %v; want verified", tier, err)
	}
	// A matching claim on the same certificate must fail: the flow
	// relaxation splits load fractionally and only proves 6.
	forged := *c
	forged.Witness.Kind = WitnessMatching
	if _, err := Verify(g, &forged); err == nil || !strings.Contains(err.Error(), "matching witness does not hold") {
		t.Fatalf("forged matching witness: err %v", err)
	}
}

// TestIssuePackingWitnessHyper: the packing witness path for MULTIPROC —
// cheapest configuration weights feed the identical-machines relaxation.
func TestIssuePackingWitnessHyper(t *testing.T) {
	b := hypergraph.NewBuilder(3, 2)
	for task := 0; task < 3; task++ {
		b.AddEdge(task, []int{0}, 4)
		b.AddEdge(task, []int{1}, 4)
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := []int32{0, 3, 4} // t0→p0, t1→p1, t2→p0: loads 8, 4
	m := core.HyperMakespan(h, core.HyperAssignment(a))
	if m != 8 {
		t.Fatalf("makespan = %d, want 8", m)
	}
	c := Issue(h, a, m, true, 0, "bnb-mp")
	if c.Witness.Kind != WitnessPacking {
		t.Fatalf("witness = %s, want packing", c.Witness.Kind)
	}
	tier, err := Verify(h, c)
	if err != nil || tier != TierVerified {
		t.Fatalf("Verify: tier %s, err %v; want verified", tier, err)
	}
}

// TestIssueMatchingWitness: when only the matching/flow bound sees the
// eligibility bottleneck, Issue claims WitnessMatching and Verify
// re-derives it.
func TestIssueMatchingWitness(t *testing.T) {
	g := matchingGraph(t)
	a := []int32{0, 0, 1}
	m := core.Makespan(g, core.Assignment(a))
	if m != 6 {
		t.Fatalf("makespan = %d, want 6", m)
	}
	c := Issue(g, a, m, true, 0, "bnb")
	if c.Witness.Kind != WitnessMatching {
		t.Fatalf("witness = %s, want matching", c.Witness.Kind)
	}
	if c.LowerBound != m {
		t.Fatalf("lower bound = %d, want %d (gap closed)", c.LowerBound, m)
	}
	tier, err := Verify(g, c)
	if err != nil || tier != TierVerified {
		t.Fatalf("Verify: tier %s, err %v; want verified", tier, err)
	}
	// JSON round-trip preserves the strong-bound claim end to end.
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Certificate
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if tier, err := Verify(g, &back); err != nil || tier != TierVerified {
		t.Fatalf("deserialized matching certificate: tier %s, err %v", tier, err)
	}
	// A packing claim on this instance cannot be supported (packing only
	// proves 4).
	forged := back
	forged.Witness.Kind = WitnessPacking
	if _, err := Verify(g, &forged); err == nil || !strings.Contains(err.Error(), "packing witness does not hold") {
		t.Fatalf("forged packing witness: err %v", err)
	}
}

// TestBoundsUnsupported: unknown instance types error instead of
// guessing.
func TestBoundsUnsupported(t *testing.T) {
	if _, _, err := Bounds(42); err == nil {
		t.Fatal("Bounds(42) succeeded")
	}
	if _, err := Verify(42, &Certificate{}); err == nil {
		t.Fatal("Verify on unsupported instance succeeded")
	}
	if _, err := Verify(testGraph(t), nil); err == nil {
		t.Fatal("Verify(nil certificate) succeeded")
	}
}
