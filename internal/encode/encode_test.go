package encode

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"semimatch/internal/bipartite"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
)

func TestBipartiteRoundTripUnit(t *testing.T) {
	g, err := bipartite.NewFromAdjacency(3, [][]int{{0, 2}, {1}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBipartite(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBipartite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Ptr, g2.Ptr) || !reflect.DeepEqual(g.Adj, g2.Adj) || !g2.Unit() {
		t.Fatal("round trip mismatch")
	}
}

func TestBipartiteRoundTripWeighted(t *testing.T) {
	b := bipartite.NewBuilder(2, 2)
	b.AddWeightedEdge(0, 0, 5)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 1, 9)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteBipartite(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBipartite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.W, g2.W) {
		t.Fatalf("weights: %v vs %v", g.W, g2.W)
	}
}

func TestHypergraphRoundTrip(t *testing.T) {
	b := hypergraph.NewBuilder(3, 4)
	b.AddEdge(0, []int{0}, 2)
	b.AddEdge(0, []int{1, 2}, 1)
	b.AddEdge(1, []int{2, 3}, 5)
	b.AddEdge(2, []int{0, 1, 2, 3}, 1)
	h := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteHypergraph(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHypergraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Pins, h2.Pins) || !reflect.DeepEqual(h.Weight, h2.Weight) ||
		!reflect.DeepEqual(h.Owner, h2.Owner) {
		t.Fatal("round trip mismatch")
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	src := `# a comment

bipartite 2 2 unit
# edges below
0 0

1 1
`
	g, err := ReadBipartite(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src string
		hyper     bool
	}{
		{"empty", "", false},
		{"bad header kind", "bipartite 2 2 float\n", false},
		{"wrong word", "graph 2 2 unit\n", false},
		{"bad sizes", "bipartite x 2 unit\n", false},
		{"field count", "bipartite 2 2 unit\n0 0 5\n", false},
		{"bad weight", "bipartite 2 2 weighted\n0 0 w\n", false},
		{"edge out of range", "bipartite 2 2 unit\n0 7\n", false},
		{"hyper empty", "", true},
		{"hyper bad header", "hypergraph 1 1\n", true},
		{"hyper truncated edge", "hypergraph 1 1 1\n0 1\n", true},
		{"hyper proc count", "hypergraph 1 1 1\n0 1 2 0\n", true},
		{"hyper count mismatch", "hypergraph 1 1 2\n0 1 1 0\n", true},
		{"hyper bad proc", "hypergraph 1 1 1\n0 1 1 z\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.hyper {
				_, err = ReadHypergraph(strings.NewReader(tc.src))
			} else {
				_, err = ReadBipartite(strings.NewReader(tc.src))
			}
			if err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestHeaderAllocationBomb(t *testing.T) {
	// Regression (found by FuzzReadBipartite): a huge declared dimension
	// must be rejected before allocating, not OOM the process.
	if _, err := ReadBipartite(strings.NewReader("bipartite 99999999999 2 unit\n")); err == nil {
		t.Fatal("giant n accepted")
	}
	if _, err := ReadHypergraph(strings.NewReader("hypergraph 2 99999999999 0\n")); err == nil {
		t.Fatal("giant p accepted")
	}
	if _, err := ReadHypergraph(strings.NewReader("hypergraph 2 2 99999999999\n")); err == nil {
		t.Fatal("giant m accepted")
	}
}

// TestDetectKind: Parse picks the parser from the header's first word.
func TestDetectKind(t *testing.T) {
	if v, err := Parse([]byte("# c\nbipartite 1 1 unit\n0 0\n")); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*bipartite.Graph); !ok {
		t.Fatalf("bipartite body parsed as %T", v)
	}
	if v, err := Parse([]byte("hypergraph 1 1 1\n0 1 1 0\n")); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*hypergraph.Hypergraph); !ok {
		t.Fatalf("hypergraph body parsed as %T", v)
	}
	if _, err := Parse([]byte("")); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := Parse([]byte("nonsense\n")); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("nonsense: err = %v", err)
	}
}

func TestPropertyRoundTripGeneratedHypergraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.HyperParams{
			Gen:     gen.Generator(rng.Intn(2)),
			N:       1 + rng.Intn(60),
			P:       4 + rng.Intn(30),
			Dv:      1 + rng.Intn(4),
			Dh:      1 + rng.Intn(5),
			G:       1 + rng.Intn(4),
			Weights: gen.WeightScheme(rng.Intn(3)),
			MaxW:    20,
		}
		h, err := gen.Hypergraph(p, seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteHypergraph(&buf, h) != nil {
			return false
		}
		h2, err := ReadHypergraph(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(h.Pins, h2.Pins) &&
			reflect.DeepEqual(h.PinPtr, h2.PinPtr) &&
			reflect.DeepEqual(h.Weight, h2.Weight) &&
			reflect.DeepEqual(h.Owner, h2.Owner)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTripGeneratedBipartite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.Bipartite(gen.FewgManyg, 1+rng.Intn(80), 4+rng.Intn(30), 1+rng.Intn(4), 1+rng.Intn(6), seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteBipartite(&buf, g) != nil {
			return false
		}
		g2, err := ReadBipartite(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.Ptr, g2.Ptr) && reflect.DeepEqual(g.Adj, g2.Adj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
