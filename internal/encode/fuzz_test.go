package encode

import (
	"bufio"
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// The parsers consume untrusted files (cmd/semisolve reads arbitrary
// paths) and request bodies (semiserve); fuzzing asserts that they never
// panic, that the in-memory entry point Parse and the io.Reader entry
// points agree, and that anything they accept survives a write/read round
// trip unchanged.

func FuzzReadBipartite(f *testing.F) {
	f.Add("bipartite 2 2 unit\n0 0\n1 1\n")
	f.Add("bipartite 2 2 weighted\n0 0 5\n")
	f.Add("bipartite 0 0 unit\n")
	f.Add("# comment\nbipartite 1 1 unit\n\n0 0\n")
	f.Add("bipartite 1 1 float\n")
	f.Add("hypergraph 1 1 1\n0 1 1 0\n")
	f.Add("bipartite 99999999999 2 unit\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadBipartite(strings.NewReader(src))
		v, perr := Parse([]byte(src))
		pg, parsed := v.(*bipartite.Graph)
		if err != nil {
			if parsed {
				t.Fatalf("Parse accepted a graph ReadBipartite rejected with %v", err)
			}
			return
		}
		if perr != nil || !parsed || !reflect.DeepEqual(g, pg) {
			t.Fatalf("Parse = %T, %v; ReadBipartite accepted %+v", v, perr, g)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBipartite(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := ReadBipartite(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !reflect.DeepEqual(g.Ptr, g2.Ptr) || !reflect.DeepEqual(g.Adj, g2.Adj) || !reflect.DeepEqual(g.W, g2.W) {
			t.Fatal("round trip changed the graph")
		}
	})
}

func FuzzReadHypergraph(f *testing.F) {
	f.Add("hypergraph 1 1 1\n0 1 1 0\n")
	f.Add("hypergraph 2 3 3\n0 2 1 0\n0 1 2 1 2\n1 1 1 2\n")
	f.Add("hypergraph 1 1 0\n")
	f.Add("hypergraph 1 1 1\n0 1 2 0\n")
	f.Add("hypergraph -1 1 1\n")
	f.Add("hypergraph 2 3 4\n0 5 2 2 0\n0 5 2 1 0\n0 2 1 1\n1 1 3 2 1 0\n")
	f.Add(hotBody)
	f.Add(hotBodyRestated)
	f.Fuzz(func(t *testing.T, src string) {
		h, err := ReadHypergraph(strings.NewReader(src))
		v, perr := Parse([]byte(src))
		ph, parsed := v.(*hypergraph.Hypergraph)
		if err != nil {
			if parsed {
				t.Fatalf("Parse accepted a hypergraph ReadHypergraph rejected with %v", err)
			}
			return
		}
		if perr != nil || !parsed || !reflect.DeepEqual(h, ph) {
			t.Fatalf("Parse = %T, %v; ReadHypergraph accepted %+v", v, perr, h)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted invalid hypergraph: %v", err)
		}
		canon, perm, err := CanonicalHypergraph(h)
		if err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		want, wantPerm := builderCanonical(t, h)
		if !reflect.DeepEqual(canon, want) || !reflect.DeepEqual(perm, wantPerm) {
			t.Fatalf("CanonicalHypergraph = %+v %v, Builder reference %+v %v", canon, perm, want, wantPerm)
		}
		var buf bytes.Buffer
		if err := WriteHypergraph(&buf, h); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		h2, err := ReadHypergraph(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !reflect.DeepEqual(h.Pins, h2.Pins) || !reflect.DeepEqual(h.Weight, h2.Weight) {
			t.Fatal("round trip changed the hypergraph")
		}
	})
}

// builderCanonical is the reference canonicalization: sort each task's
// hyperedges by (weight, processor set) and feed them through a Builder.
// CanonicalHypergraph must produce exactly its result.
func builderCanonical(t *testing.T, h *hypergraph.Hypergraph) (*hypergraph.Hypergraph, []int32) {
	t.Helper()
	var order []int32
	for task := 0; task < h.NTasks; task++ {
		row := append([]int32(nil), h.TaskEdges(task)...)
		slices.SortStableFunc(row, func(a, b int32) int {
			if c := cmp.Compare(h.Weight[a], h.Weight[b]); c != 0 {
				return c
			}
			return slices.Compare(h.EdgeProcs(a), h.EdgeProcs(b))
		})
		order = append(order, row...)
	}
	b := hypergraph.NewBuilder(h.NTasks, h.NProcs)
	perm := make([]int32, len(order))
	for canonID, e := range order {
		b.AddEdge32(h.Owner[e], h.EdgeProcs(e), h.Weight[e])
		perm[e] = int32(canonID)
	}
	canon, err := b.Build()
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return canon, perm
}

// fingerprintTwoStep is the reference fingerprint: the canonical copy,
// then the hash of its text. FingerprintHypergraph must agree with it
// without building the copy.
func fingerprintTwoStep(t *testing.T, h *hypergraph.Hypergraph) string {
	t.Helper()
	canon, _, err := CanonicalHypergraph(h)
	if err != nil {
		t.Fatalf("reference canonicalize: %v", err)
	}
	return FingerprintCanonicalHypergraph(canon)
}

// FuzzFingerprintHypergraph holds the direct fingerprint to the two-step
// reference on random hypergraphs (weights and processor sets drawn from
// small ranges, so ties and repeated configurations are common) and on
// isomorphs whose configurations and processors are listed in shuffled
// order, which must share the fingerprint.
func FuzzFingerprintHypergraph(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(5), uint8(3), uint8(3))
	f.Add(int64(7), int64(0), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), int64(9), uint8(40), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, seed, shuffle int64, nTasks, nProcs, maxDeg uint8) {
		n, p, deg := int(nTasks%64), 1+int(nProcs%16), 1+int(maxDeg%8)
		rng := rand.New(rand.NewSource(seed))
		type config struct {
			procs []int
			w     int64
		}
		tasks := make([][]config, n)
		for i := range tasks {
			for j := 1 + rng.Intn(deg); j > 0; j-- {
				procs := rng.Perm(p)[:1+rng.Intn(min(p, 3))]
				tasks[i] = append(tasks[i], config{procs, 1 + rng.Int63n(4)})
			}
		}
		build := func(order *rand.Rand) *hypergraph.Hypergraph {
			b := hypergraph.NewBuilder(n, p)
			for i, cfgs := range tasks {
				if order != nil {
					cfgs = slices.Clone(cfgs)
					order.Shuffle(len(cfgs), func(a, b int) { cfgs[a], cfgs[b] = cfgs[b], cfgs[a] })
				}
				for _, c := range cfgs {
					procs := slices.Clone(c.procs)
					if order != nil {
						order.Shuffle(len(procs), func(a, b int) { procs[a], procs[b] = procs[b], procs[a] })
					}
					b.AddEdge(i, procs, c.w)
				}
			}
			return b.MustBuild()
		}
		h, iso := build(nil), build(rand.New(rand.NewSource(shuffle)))
		fp, err := FingerprintHypergraph(h)
		if err != nil {
			t.Fatal(err)
		}
		if want := fingerprintTwoStep(t, h); fp != want {
			t.Fatalf("FingerprintHypergraph = %s, two-step reference %s", fp, want)
		}
		isoFP, err := FingerprintHypergraph(iso)
		if err != nil {
			t.Fatal(err)
		}
		if want := fingerprintTwoStep(t, iso); isoFP != want || isoFP != fp {
			t.Fatalf("shuffled isomorph: FingerprintHypergraph = %s, two-step %s, original %s", isoFP, want, fp)
		}
	})
}

// FuzzFields checks the lexer against the definition it replaces: the
// content lines of a bufio.Scanner pass over the input, each split by
// strings.Fields(strings.TrimSpace(line)), blank lines and '#' comments
// skipped, with the same line numbers.
func FuzzFields(f *testing.F) {
	f.Add("hypergraph 1 1 1\r\n0 1 1 0\r\n")
	f.Add("a\vb\fc\td\r")
	f.Add("x\u0085y\u00a0z")
	f.Add("\u0085# not a comment?\n\u00a0#comment\n")
	f.Add("\xff \xfe\x85 \xc2")
	f.Add("a\u2028b\u3000c\u200bd")
	f.Add("# only\n\n  \t\n")
	f.Add("last line without newline")
	f.Add("\n\n\r\n")
	f.Fuzz(func(t *testing.T, src string) {
		type line struct {
			no     int
			fields []string
		}
		var want []line
		sc := bufio.NewScanner(strings.NewReader(src))
		sc.Buffer(make([]byte, 0, 64), len(src)+1)
		for no := 1; sc.Scan(); no++ {
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			want = append(want, line{no, strings.Fields(s)})
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("reference scanner: %v", err)
		}
		var got []line
		l := lexer{data: []byte(src)}
		for l.next() {
			fields := make([]string, len(l.fields))
			for i, f := range l.fields {
				fields[i] = string(f)
			}
			got = append(got, line{l.lineNo, fields})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lexer %q\n got %v\nwant %v", src, got, want)
		}
	})
}
