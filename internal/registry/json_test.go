package registry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

func TestRecordsMatchCatalog(t *testing.T) {
	recs := Records()
	solvers := Solvers()
	if len(recs) != len(solvers) {
		t.Fatalf("%d records for %d solvers", len(recs), len(solvers))
	}
	for i, r := range recs {
		s := solvers[i]
		if r.Name != s.Name || r.Class != s.Class.String() || r.Kind != s.Kind.String() ||
			r.Cost != s.Cost.String() || r.Aux != s.Aux || r.Optimal != (s.Kind == Exact) {
			t.Errorf("record %d does not match solver %s: %+v", i, s.Name, r)
		}
		if r.Summary == "" {
			t.Errorf("record %s has no summary", r.Name)
		}
	}
}

func TestWriteCatalogNDJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatalogNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var r SolverRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d is not a SolverRecord: %v", n+1, err)
		}
		if r.Name == "" || r.Class == "" || r.Kind == "" || r.Cost == "" {
			t.Fatalf("line %d misses required fields: %s", n+1, sc.Text())
		}
		n++
	}
	if n != len(Solvers()) {
		t.Fatalf("NDJSON has %d lines for %d solvers", n, len(Solvers()))
	}
}
