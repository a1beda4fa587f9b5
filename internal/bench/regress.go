package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReadPerfJSON parses a BENCH.json report previously written by
// WritePerfJSON, rejecting payloads from a different schema generation.
func ReadPerfJSON(r io.Reader) (*PerfReport, error) {
	var rep PerfReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: parsing perf report: %w", err)
	}
	if rep.Schema != "semimatch-bench/v1" {
		return nil, fmt.Errorf("bench: unsupported perf report schema %q", rep.Schema)
	}
	return &rep, nil
}

// NodeRegressions compares the node counts of cur against a previously
// recorded report: any row present in both — matched by case, solver and
// engine, since the sequential and parallel rows of one case share its
// name — that now explores more nodes is a search regression. A row that
// ran on one worker used the sequential DFS, whatever its solver; a
// parallel row used its report's ParEngine. Node counts are deterministic
// for a fixed engine (the sequential DFS and the parallel rounds search
// alike), so this is a stable guard in a way wall-clock never is, and it
// has zero tolerance. Parallel rows from the earlier work-stealing pool
// (no ParEngine) are never compared: their node counts varied from run to
// run. Rows only present on one side are ignored (families come and go
// across PRs). Returns one human-readable line per regression; empty
// means pass.
func NodeRegressions(prev, cur *PerfReport) []string {
	type key struct{ caseName, solver, engine string }
	engine := func(rep *PerfReport, c PerfCase) string {
		if c.Workers == 1 {
			return "dfs"
		}
		return rep.ParEngine // empty for the work-stealing pool: never stored
	}
	base := make(map[key]PerfCase, len(prev.Cases))
	for _, c := range prev.Cases {
		if e := engine(prev, c); e != "" {
			base[key{c.Case, c.Solver, e}] = c
		}
	}
	var regressions []string
	for _, c := range cur.Cases {
		old, ok := base[key{c.Case, c.Solver, engine(cur, c)}]
		if !ok {
			continue
		}
		if c.Nodes > old.Nodes {
			regressions = append(regressions,
				fmt.Sprintf("%s (%s): %d nodes (was %d, +%.1f%%)",
					c.Case, c.Solver, c.Nodes, old.Nodes,
					100*float64(c.Nodes-old.Nodes)/float64(max(old.Nodes, 1))))
		}
	}
	return regressions
}
