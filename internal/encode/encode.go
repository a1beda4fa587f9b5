// Package encode reads and writes semimatch instances in a simple,
// line-oriented text format, so instances can be generated once, exchanged
// and replayed (cmd/semigen writes them, cmd/semisolve reads them).
//
// Bipartite (SINGLEPROC) format:
//
//	bipartite <nTasks> <nProcs> <unit|weighted>
//	<task> <proc> [<weight>]        # one line per edge
//
// Hypergraph (MULTIPROC) format:
//
//	hypergraph <nTasks> <nProcs> <nEdges>
//	<task> <weight> <k> <p1> ... <pk>   # one line per hyperedge
//
// Lines starting with '#' and blank lines are ignored. All indices are
// 0-based. Fields are separated by whitespace, which means any rune for
// which unicode.IsSpace holds, exactly as strings.Fields splits a line.
//
// The parsers work on the whole input in memory (Parse takes the bytes;
// ReadBipartite and ReadHypergraph read their io.Reader to the end first).
// Lines have no length limit of their own: the caller bounds the input,
// as semiserve does with -max-body.
package encode

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// MaxDim caps declared task/processor/hyperedge counts when parsing, so a
// tiny hostile header cannot demand a multi-gigabyte allocation (the
// builders allocate O(n) from the header before seeing any edges). 2^26
// vertices is far beyond the paper's grids yet bounds the up-front
// allocation to a few hundred megabytes.
const MaxDim = 1 << 26

// Parse decodes either text format from an in-memory body, choosing the
// parser from the header's first word. It returns a *bipartite.Graph for
// "bipartite" and a *hypergraph.Hypergraph for "hypergraph".
func Parse(data []byte) (any, error) {
	l, err := newLexer(data)
	if err != nil {
		return nil, err
	}
	switch string(l.fields[0]) {
	case "bipartite":
		g, err := parseBipartite(l)
		if err != nil {
			return nil, err
		}
		return g, nil
	case "hypergraph":
		h, err := parseHypergraph(l)
		if err != nil {
			return nil, err
		}
		return h, nil
	default:
		return nil, fmt.Errorf("encode: unknown format %q", l.fields[0])
	}
}

// AppendBipartite appends g's bipartite text encoding to dst and returns
// the extended buffer.
func AppendBipartite(dst []byte, g *bipartite.Graph) []byte {
	kind := " unit\n"
	if !g.Unit() {
		kind = " weighted\n"
	}
	dst = append(dst, "bipartite "...)
	dst = strconv.AppendInt(dst, int64(g.NLeft), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(g.NRight), 10)
	dst = append(dst, kind...)
	for t := 0; t < g.NLeft; t++ {
		ws := g.Weights(t)
		for i, p := range g.Neighbors(t) {
			dst = strconv.AppendInt(dst, int64(t), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(p), 10)
			if ws != nil {
				dst = append(dst, ' ')
				dst = strconv.AppendInt(dst, ws[i], 10)
			}
			dst = append(dst, '\n')
		}
	}
	return dst
}

// WriteBipartite writes g in the bipartite text format.
func WriteBipartite(w io.Writer, g *bipartite.Graph) error {
	_, err := w.Write(AppendBipartite(nil, g))
	return err
}

// ReadBipartite parses the bipartite text format.
func ReadBipartite(r io.Reader) (*bipartite.Graph, error) {
	l, err := readLexer(r)
	if err != nil {
		return nil, err
	}
	return parseBipartite(l)
}

// parseBipartite parses a bipartite body; l stands on its header line.
func parseBipartite(l *lexer) (*bipartite.Graph, error) {
	head := l.fields
	if len(head) != 4 || string(head[0]) != "bipartite" {
		return nil, fmt.Errorf("encode: bad bipartite header %q", bytes.Join(head, []byte(" ")))
	}
	n, err1 := atoi(head[1])
	p, err2 := atoi(head[2])
	if err1 != nil || err2 != nil || n < 0 || p < 0 || n > MaxDim || p > MaxDim {
		return nil, fmt.Errorf("encode: bad sizes in header (limit %d)", MaxDim)
	}
	weighted := string(head[3]) == "weighted"
	if !weighted && string(head[3]) != "unit" {
		return nil, fmt.Errorf("encode: bad kind %q", head[3])
	}
	wantFields := 2
	if weighted {
		wantFields = 3
	}
	b := bipartite.NewBuilder(n, p)
	for l.next() {
		fields := l.fields
		if len(fields) != wantFields {
			return nil, fmt.Errorf("encode: line %d: want %d fields, got %d", l.lineNo, wantFields, len(fields))
		}
		t, err1 := atoi(fields[0])
		pr, err2 := atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("encode: line %d: bad edge", l.lineNo)
		}
		w := int64(1)
		if weighted {
			var err error
			if w, err = strconv.ParseInt(string(fields[2]), 10, 64); err != nil {
				return nil, fmt.Errorf("encode: line %d: bad weight", l.lineNo)
			}
		}
		b.AddWeightedEdge(t, pr, w)
	}
	if err := checkTasks(n, b.NumEdges()); err != nil {
		return nil, err
	}
	return b.Build()
}

// AppendHypergraph appends h's hypergraph text encoding to dst and
// returns the extended buffer.
func AppendHypergraph(dst []byte, h *hypergraph.Hypergraph) []byte {
	return appendHypergraphOrder(dst, h, h.Edges)
}

// appendHypergraphOrder is AppendHypergraph listing task t's hyperedges
// as edges[h.TaskPtr[t]:h.TaskPtr[t+1]]. With h.Edges that is h's own
// order; with another order of the same per-task blocks it is the text
// of h with its hyperedges renumbered in that order.
func appendHypergraphOrder(dst []byte, h *hypergraph.Hypergraph, edges []int32) []byte {
	dst = append(dst, "hypergraph "...)
	dst = strconv.AppendInt(dst, int64(h.NTasks), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(h.NProcs), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(h.NumEdges()), 10)
	dst = append(dst, '\n')
	for t := 0; t < h.NTasks; t++ {
		for _, e := range edges[h.TaskPtr[t]:h.TaskPtr[t+1]] {
			procs := h.EdgeProcs(e)
			dst = strconv.AppendInt(dst, int64(t), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, h.Weight[e], 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(len(procs)), 10)
			for _, u := range procs {
				dst = append(dst, ' ')
				dst = strconv.AppendInt(dst, int64(u), 10)
			}
			dst = append(dst, '\n')
		}
	}
	return dst
}

// WriteHypergraph writes h in the hypergraph text format.
func WriteHypergraph(w io.Writer, h *hypergraph.Hypergraph) error {
	_, err := w.Write(AppendHypergraph(nil, h))
	return err
}

// ReadHypergraph parses the hypergraph text format.
func ReadHypergraph(r io.Reader) (*hypergraph.Hypergraph, error) {
	l, err := readLexer(r)
	if err != nil {
		return nil, err
	}
	return parseHypergraph(l)
}

// parseHypergraph parses a hypergraph body; l stands on its header line.
func parseHypergraph(l *lexer) (*hypergraph.Hypergraph, error) {
	head := l.fields
	if len(head) != 4 || string(head[0]) != "hypergraph" {
		return nil, fmt.Errorf("encode: bad hypergraph header %q", bytes.Join(head, []byte(" ")))
	}
	n, err1 := atoi(head[1])
	p, err2 := atoi(head[2])
	m, err3 := atoi(head[3])
	if err1 != nil || err2 != nil || err3 != nil || n < 0 || p < 0 || m < 0 ||
		n > MaxDim || p > MaxDim || m > MaxDim {
		return nil, fmt.Errorf("encode: bad sizes in header (limit %d)", MaxDim)
	}
	// Room for the m hyperedges the header declares, but never for more
	// than the rest of the body can hold: a hyperedge line takes at least
	// six bytes ("t w k" and its newline).
	edges := min(m, (len(l.data)+1)/6)
	b := hypergraph.NewBuilderSize(n, p, edges, edges)
	var procs []int32 // one line's processors; AddEdge32 copies them
	for l.next() {
		fields := l.fields
		if len(fields) < 3 {
			return nil, fmt.Errorf("encode: line %d: truncated hyperedge", l.lineNo)
		}
		t, err1 := atoi(fields[0])
		w, err2 := strconv.ParseInt(string(fields[1]), 10, 64)
		k, err3 := atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil || k < 0 {
			return nil, fmt.Errorf("encode: line %d: bad hyperedge header", l.lineNo)
		}
		if len(fields) != 3+k {
			return nil, fmt.Errorf("encode: line %d: want %d processors, got %d", l.lineNo, k, len(fields)-3)
		}
		procs = procs[:0]
		for _, f := range fields[3:] {
			u, err := atoi(f)
			if err != nil {
				return nil, fmt.Errorf("encode: line %d: bad processor", l.lineNo)
			}
			procs = append(procs, int32(u))
		}
		b.AddEdge32(int32(t), procs, w)
	}
	if edges := b.NumEdges(); edges != m {
		return nil, fmt.Errorf("encode: header says %d hyperedges, file has %d", m, edges)
	}
	if err := checkTasks(n, m); err != nil {
		return nil, err
	}
	return b.Build()
}

// checkTasks rejects a header that declares more tasks than the file has
// edge lines. Such an instance has a task with no edge, which no schedule
// can place, and rejecting it before Build keeps a short body with a huge
// declared task count from allocating O(tasks) memory.
func checkTasks(tasks, edges int) error {
	if tasks > edges {
		return fmt.Errorf("encode: header declares %d tasks but the file has %d edge lines; every task needs one", tasks, edges)
	}
	return nil
}

// atoi parses a decimal int field. The string conversion does not escape,
// so it does not allocate.
func atoi(b []byte) (int, error) { return strconv.Atoi(string(b)) }

// lexer walks the content lines of an in-memory body, skipping blank
// lines and '#' comments. After next returns true, fields holds the
// line's whitespace-separated fields (slices of the body, valid until the
// next call) and lineNo its 1-based line number.
type lexer struct {
	data   []byte
	lineNo int
	fields [][]byte
}

// newLexer returns a lexer standing on data's first content line, the
// header.
func newLexer(data []byte) (*lexer, error) {
	l := &lexer{data: data}
	if !l.next() {
		return nil, errors.New("encode: empty input")
	}
	return l, nil
}

// readLexer is newLexer over everything r yields.
func readLexer(r io.Reader) (*lexer, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return newLexer(data)
}

// next advances to the next content line and reports whether there is one.
func (l *lexer) next() bool {
	for len(l.data) > 0 {
		line := l.data
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, l.data = line[:i], l.data[i+1:]
		} else {
			l.data = nil
		}
		l.lineNo++
		l.fields = appendFields(l.fields[:0], line)
		if len(l.fields) > 0 && l.fields[0][0] != '#' {
			return true
		}
	}
	return false
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of line to dst, splitting where
// strings.Fields does: around each maximal run of unicode.IsSpace runes.
// Bytes that are not valid UTF-8 are not space.
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1 // start of the current field, or -1 between fields
	for i := 0; i < len(line); {
		c, size := line[i], 1
		space := c < utf8.RuneSelf && asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, line[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}
