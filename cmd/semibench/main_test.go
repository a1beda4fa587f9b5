package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"semimatch/internal/bench"
)

// paperTablesDigest is tablesDigest of `semibench -table all -quick
// -json`. The tables' heuristic columns, lower bounds and ExactUnit
// optima are deterministic, so a change that alters any answer the
// paper's tables report changes it.
const paperTablesDigest = "4cd9317ba3b07aefdc46d7af650417aa503c2c48189a05c7f5d7372970eced34"

// TestPaperTablesDigest pins every answer of the quick paper tables —
// Tables I, II, III and 8, Fig. 3 and the SINGLEPROC-UNIT tables — with
// their timings dropped.
func TestPaperTablesDigest(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the tables about tenfold")
	}
	var out bytes.Buffer
	runTables(context.Background(), &out, bench.Options{Quick: true}, "all", true, 10, true, 0)
	got, err := tablesDigest(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != paperTablesDigest {
		t.Fatalf("paper tables digest %s, want %s", got, paperTablesDigest)
	}
}

// tablesDigest is the hex SHA-256 of semibench's NDJSON tables with every
// timing field (a key ending in "time_s") dropped, each object
// re-encoded with sorted keys, one per line.
func tablesDigest(ndjson []byte) (string, error) {
	h := sha256.New()
	dec := json.NewDecoder(bytes.NewReader(ndjson))
	for {
		var v any
		if err := dec.Decode(&v); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return "", err
		}
		line, err := json.Marshal(dropTimes(v))
		if err != nil {
			return "", err
		}
		h.Write(append(line, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dropTimes deletes every timing field from a decoded JSON value.
func dropTimes(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if strings.HasSuffix(k, "time_s") {
				delete(v, k)
			} else {
				v[k] = dropTimes(x)
			}
		}
	case []any:
		for i, x := range v {
			v[i] = dropTimes(x)
		}
	}
	return v
}
