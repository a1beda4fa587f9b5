package registry

import (
	"encoding/json"
	"io"
)

// SolverRecord is the machine-readable form of one catalog entry — the
// schema shared by `semisolve -list-algorithms -json`, `semibench
// -list-algorithms -json` and the semiserve `GET /algorithms` endpoint,
// so tooling has exactly one way to discover the catalog.
type SolverRecord struct {
	Name     string   `json:"name"`
	Aliases  []string `json:"aliases,omitempty"`
	Class    string   `json:"class"` // SINGLEPROC | MULTIPROC
	Kind     string   `json:"kind"`  // heuristic | exact | online
	Cost     string   `json:"cost"`  // near-linear | polynomial | exponential
	Aux      bool     `json:"aux,omitempty"`
	Optimal  bool     `json:"optimal"`            // a nil-error result is provably optimal
	Parallel bool     `json:"parallel,omitempty"` // scales with exact.Options.Workers
	Summary  string   `json:"summary"`
}

// Record converts one solver to its machine-readable form.
func (s *Solver) Record() SolverRecord {
	return SolverRecord{
		Name:     s.Name,
		Aliases:  append([]string(nil), s.Aliases...),
		Class:    s.Class.String(),
		Kind:     s.Kind.String(),
		Cost:     s.Cost.String(),
		Aux:      s.Aux,
		Optimal:  s.Kind == Exact,
		Parallel: s.Parallel,
		Summary:  s.Summary,
	}
}

// Records returns the full catalog as machine-readable records, in the
// deterministic registration order.
func Records() []SolverRecord {
	out := make([]SolverRecord, 0, len(all))
	for _, s := range all {
		out = append(out, s.Record())
	}
	return out
}

// WriteCatalogNDJSON emits the catalog as newline-delimited JSON, one
// SolverRecord per line.
func WriteCatalogNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range Records() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
