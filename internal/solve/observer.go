package solve

import (
	"math"
	"sync"
	"time"
)

// Incumbent is one observation of a run's best-schedule-so-far. The
// assignment is a private copy in the problem's own encoding (task →
// processor for SINGLEPROC, task → hyperedge id for MULTIPROC); the
// observer owns it.
type Incumbent struct {
	// Makespan of the incumbent schedule. Across the observations of one
	// Run, makespans are monotonically non-increasing.
	Makespan int64
	// Assignment is the incumbent schedule (a copy).
	Assignment []int32
	// Solver names what produced this incumbent: the canonical registry
	// name of the solver or heuristic-race member.
	Solver string
	// Elapsed is the time since Run started.
	Elapsed time.Duration
	// Final marks the closing observation: every Run with an observer
	// ends with exactly one Final event whose makespan and assignment
	// match the returned Report.
	Final bool
}

// Observer receives incumbent observations during a Run. Calls are
// serialized (never concurrent) and polled at solver checkpoints, so a
// slow observer delays the solve only at those checkpoints. A panicking
// observer is isolated: the panic is swallowed, the solve continues, and
// later observations are still delivered.
type Observer func(Incumbent)

// obsState adapts the per-solver observation sources (exact incumbent
// callbacks, heuristic-race member completions) to the Observer contract:
// serialized, monotonically non-increasing, panic-isolated, and closed by
// one Final event that matches the Report.
type obsState struct {
	fn    Observer
	start time.Time

	mu    sync.Mutex
	best  int64
	count int
}

func newObsState(fn Observer, start time.Time) *obsState {
	if fn == nil {
		return nil
	}
	return &obsState{fn: fn, start: start, best: math.MaxInt64}
}

// active reports whether observations are wanted; nil-safe.
func (s *obsState) active() bool { return s != nil }

// call invokes the user observer with panic isolation.
func (s *obsState) call(inc Incumbent) {
	defer func() { _ = recover() }()
	s.fn(inc)
}

// emit forwards an observation if it improves on everything seen so far.
// copied=false copies the assignment before handing it out.
func (s *obsState) emit(solver string, m int64, a []int32, copied bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m >= s.best {
		return
	}
	s.best = m
	s.count++
	if !copied {
		a = append([]int32(nil), a...)
	}
	s.call(Incumbent{Makespan: m, Assignment: a, Solver: solver, Elapsed: time.Since(s.start)})
}

// exactFn returns the raw callback threaded into exact.Options.Observer.
// The exact solvers already hand out private copies.
func (s *obsState) exactFn(solver string) func(int64, []int32) {
	if s == nil {
		return nil
	}
	return func(m int64, a []int32) { s.emit(solver, m, a, true) }
}

// final closes the stream with the report's own result. It always fires
// (even when no intermediate observation did), so "last observation
// matches the report" holds for every solver, heuristics included.
func (s *obsState) final(rep *Report) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	s.call(Incumbent{
		Makespan:   rep.Makespan,
		Assignment: append([]int32(nil), rep.Assignment...),
		Solver:     rep.Solver,
		Elapsed:    time.Since(s.start),
		Final:      true,
	})
}

// events returns how many observations were delivered.
func (s *obsState) events() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}
