package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// ledgerRecord is the part of a semiserve solve-ledger line the harness
// checks.
type ledgerRecord struct {
	Source   string `json:"source"`
	Makespan int64  `json:"makespan"`
	Bound    int64  `json:"bound"`
	Status   string `json:"status"`
}

// readLedger parses every complete line of the ledger file; a missing file
// is an empty ledger.
func readLedger(path string) ([]ledgerRecord, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(raw, []byte("\n"))
	var recs []ledgerRecord
	for _, line := range lines[:len(lines)-1] {
		var r ledgerRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("solve ledger line %d: %w", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// checkLedger checks the records one measured window appended: some, all
// from the given source, each with a status and a bound no larger than its
// makespan; or none when source is empty.
func checkLedger(recs []ledgerRecord, source string) error {
	if source == "" {
		if len(recs) > 0 {
			return fmt.Errorf("%d records from a workload that solves nothing", len(recs))
		}
		return nil
	}
	if len(recs) == 0 {
		return fmt.Errorf("no %q records", source)
	}
	for i, r := range recs {
		switch {
		case r.Source != source:
			return fmt.Errorf("record %d has source %q, want %q", i, r.Source, source)
		case r.Status == "":
			return fmt.Errorf("record %d has no status", i)
		case r.Bound > r.Makespan:
			return fmt.Errorf("record %d: bound %d exceeds makespan %d", i, r.Bound, r.Makespan)
		}
	}
	return nil
}
