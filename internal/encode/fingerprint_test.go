package encode

import (
	"strings"
	"testing"

	"semimatch/internal/gen"
)

// hotBody is a 12-task, 4-processor instance of the shape semiserve's
// cache-hit benchmark posts (perfbench's hotFamily, seed 101, warm
// instance 0): the request body a /solve cache hit parses, canonicalizes
// and fingerprints.
const hotBody = `hypergraph 12 4 24
0 18 1 2
1 15 1 0
1 23 2 1 2
2 33 2 2 3
2 7 2 2 3
3 34 2 1 2
4 4 2 1 3
4 20 1 3
4 18 1 2
5 34 2 2 3
5 27 2 2 3
5 6 1 3
6 32 1 2
7 36 2 1 2
7 6 1 0
7 37 1 0
8 24 1 0
9 16 2 2 3
9 13 2 0 1
10 39 2 1 2
10 38 1 3
11 17 2 1 2
11 27 2 2 3
11 34 1 0
`

// hotBodyRestated is hotBody with every task's configuration lines
// reversed, processors listed in descending order, CRLF line ends, a
// comment and irregular whitespace: the same instance, so the same
// fingerprint.
const hotBodyRestated = "# restated\r\n  hypergraph\t12 4 24\r\n" +
	"0 18 1 2\r\n1 23 2 2 1\r\n1 15 1 0\r\n2 7 2 3 2\r\n2 33 2 3 2\r\n" +
	"3 34 2 2 1\r\n4 18 1 2\r\n4 20 1 3\r\n4 4 2 3 1\r\n5 6 1 3\r\n" +
	"5 27 2 3 2\r\n5 34 2 3 2\r\n6 32 1 2\r\n7 37 1 0\r\n7 6 1 0\r\n" +
	"7 36 2 2 1\r\n8 24 1 0\r\n9 13 2 1 0\r\n9 16 2 3 2\r\n10 38 1 3\r\n" +
	"10 39 2 2 1\r\n11 34 1 0\r\n11 27 2 3 2\r\n11   17 2 2\v1"

// TestFingerprintGoldens pins the fingerprints of fixed instances. The
// values were produced by the fmt-based text writer that preceded
// AppendHypergraph/AppendBipartite; disk-cache entries and fleet routing
// are keyed by them, so any change to the canonical text encoding fails
// here instead of silently orphaning cached results.
func TestFingerprintGoldens(t *testing.T) {
	generated, err := gen.Hypergraph(gen.HyperParams{
		Gen: gen.FewgManyg, N: 40, P: 8, Dv: 2, Dh: 3, G: 2, Weights: gen.Related, MaxW: 20,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := WriteHypergraph(&text, generated); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body, want string
		hyper            bool
	}{
		{"hot 12-task", hotBody, "3186471600651556e116d816a230fc93b5d080fb1e34bde3a3f3346de6eb36aa", true},
		{"hot 12-task restated", hotBodyRestated, "3186471600651556e116d816a230fc93b5d080fb1e34bde3a3f3346de6eb36aa", true},
		{"tiny hypergraph", "hypergraph 2 2 3\n0 3 2 0 1\n0 8 1 0\n1 5 1 1\n", "13f44bac78aebcd7fdf125a2a3e7936ebdecc30666fe1326a2bc783d0bdd0474", true},
		{"generated hypergraph", text.String(), "92c627ab34b5a3300682505d59c40ec8db881f5690312b23c3d7092ee0c4044e", true},
		{"unit bipartite", "bipartite 3 3 unit\n0 2\n0 0\n1 1\n2 0\n2 1\n2 2\n", "8089cea8b797fb53369d12a63b83c67afd96348e7f913d7415518f3b9d0a06e4", false},
		{"all-ones weighted bipartite", "bipartite 3 3 weighted\n0 0 1\n0 2 1\n1 1 1\n2 0 1\n2 1 1\n2 2 1\n", "8089cea8b797fb53369d12a63b83c67afd96348e7f913d7415518f3b9d0a06e4", false},
		{"weighted bipartite", "bipartite 2 2 weighted\n0 1 1\n0 0 5\n1 1 9\n", "d144bae61bf141f9c1365eee23542996f6faaa1b4b3af9833bbd1d2b3cac5d74", false},
	}
	for _, c := range cases {
		var fp string
		var err error
		if c.hyper {
			h, rerr := ReadHypergraph(strings.NewReader(c.body))
			if rerr != nil {
				t.Fatalf("%s: %v", c.name, rerr)
			}
			fp, err = FingerprintHypergraph(h)
		} else {
			g, rerr := ReadBipartite(strings.NewReader(c.body))
			if rerr != nil {
				t.Fatalf("%s: %v", c.name, rerr)
			}
			fp, err = FingerprintBipartite(g)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fp != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, fp, c.want)
		}
	}
}
