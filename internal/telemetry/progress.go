package telemetry

import "time"

// SearchProgress is one periodic snapshot of a running branch-and-bound
// search. The engines emit it from their existing checkpoints (every few
// thousand nodes of a sequential search, each round barrier of a
// parallel one; never per node), rate-limited by wall clock, so taking
// snapshots does not perturb the search: node counts with and without a
// progress hook are identical.
type SearchProgress struct {
	// Elapsed is the wall time since the search started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Nodes is the number of nodes expanded so far.
	Nodes int64 `json:"nodes"`
	// NodesPerSec is the average expansion rate since the search began.
	NodesPerSec float64 `json:"nodes_per_sec"`
	// Incumbent is the best makespan found so far (math.MaxInt64-scale
	// sentinel if none yet; Gap reports -1 then).
	Incumbent int64 `json:"incumbent"`
	// Bound is the root lower bound the search started from.
	Bound int64 `json:"bound"`
	// Gap is (Incumbent-Bound)/Bound, or -1 while no incumbent exists.
	// 0 means the incumbent has met the root bound.
	Gap float64 `json:"gap"`
	// Workers is the number of search workers (1 for the sequential
	// search).
	Workers int `json:"workers"`
}

// ProgressFunc receives periodic SearchProgress snapshots. It is called
// from the solving goroutine (one call at a time) and must return
// quickly; anything slow should hand off to its own goroutine.
type ProgressFunc func(SearchProgress)

// ProgressInterval is the minimum wall time between two snapshots a
// progress hook receives (the final snapshot excepted).
const ProgressInterval = 250 * time.Millisecond
