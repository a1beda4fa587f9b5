// Package solve is the unified, class-generic solve surface: one Problem
// type covering both of the paper's encodings (SINGLEPROC bipartite,
// MULTIPROC hypergraph), one entry point Run with functional options, and
// one Report carrying the schedule, its bounds and its provenance.
//
// Every dispatch layer in the repo routes through this package: the batch
// runner shards []Problem across a worker pool, the service canonicalizes
// requests into Problems, and the CLIs build Problems from decoded
// instances. Algorithms resolve through the solver registry
// (internal/registry), so the catalog stays the single source of truth.
//
// Run is an anytime solver: callers can register an Observer to watch the
// incumbent schedule improve while a long branch-and-bound or heuristic
// race is still running, and a deadline or node budget degrades the
// answer to the best schedule found instead of discarding it. Whether a
// schedule is optimal is decided in one place: the certificate issued
// for it (internal/cert).
package solve

import (
	"errors"
	"fmt"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/encode"
	"semimatch/internal/hypergraph"
	"semimatch/internal/registry"
)

// ErrEmptyProblem reports a zero-value Problem (no instance attached).
var ErrEmptyProblem = errors.New("solve: empty problem (use Bipartite, Hyper or NewProblem)")

// Problem is one instance of either problem class: a sum over
// *bipartite.Graph (SINGLEPROC) and *hypergraph.Hypergraph (MULTIPROC).
// The zero value is empty and solves to an error. A Problem is an
// immutable view — it shares the underlying instance, it does not copy it.
type Problem struct {
	g *bipartite.Graph
	h *hypergraph.Hypergraph
}

// Bipartite wraps a SINGLEPROC instance.
func Bipartite(g *bipartite.Graph) Problem { return Problem{g: g} }

// Hyper wraps a MULTIPROC instance.
func Hyper(h *hypergraph.Hypergraph) Problem { return Problem{h: h} }

// NewProblem wraps any supported instance type: *bipartite.Graph,
// *hypergraph.Hypergraph, or a Problem (returned as-is), and validates it.
func NewProblem(instance any) (Problem, error) {
	var p Problem
	switch v := instance.(type) {
	case Problem:
		p = v
	case *bipartite.Graph:
		if v == nil {
			return Problem{}, errors.New("solve: nil *bipartite.Graph")
		}
		p = Bipartite(v)
	case *hypergraph.Hypergraph:
		if v == nil {
			return Problem{}, errors.New("solve: nil *hypergraph.Hypergraph")
		}
		p = Hyper(v)
	default:
		return Problem{}, fmt.Errorf("solve: unsupported instance type %T (want *bipartite.Graph or *hypergraph.Hypergraph)", instance)
	}
	return p, p.Validate()
}

// Validate reports whether the Problem carries an instance that has a
// schedule: every task needs an eligible processor (SINGLEPROC) or a
// configuration (MULTIPROC). Run and the service both reject through
// it, so an isolated task is a bad instance, not a solver failure.
func (p Problem) Validate() error {
	switch {
	case p.h != nil:
		for t := 0; t < p.h.NTasks; t++ {
			if p.h.TaskDegree(t) == 0 {
				return fmt.Errorf("solve: task %d has no configuration", t)
			}
		}
	case p.g != nil:
		for t := 0; t < p.g.NLeft; t++ {
			if p.g.Degree(t) == 0 {
				return fmt.Errorf("solve: task %d has no eligible processor", t)
			}
		}
	default:
		return ErrEmptyProblem
	}
	return nil
}

// Class is the problem class of the wrapped instance. Empty problems
// report SingleProc; call Validate first when that matters.
func (p Problem) Class() registry.Class {
	if p.h != nil {
		return registry.MultiProc
	}
	return registry.SingleProc
}

// Graph returns the SINGLEPROC instance, or nil for MULTIPROC problems.
func (p Problem) Graph() *bipartite.Graph { return p.g }

// Hypergraph returns the MULTIPROC instance, or nil for SINGLEPROC
// problems.
func (p Problem) Hypergraph() *hypergraph.Hypergraph { return p.h }

// instance returns the wrapped instance for registry dispatch.
func (p Problem) instance() any {
	if p.h != nil {
		return p.h
	}
	return p.g
}

// NTasks is the number of tasks in the instance (0 for empty problems).
func (p Problem) NTasks() int {
	switch {
	case p.h != nil:
		return p.h.NTasks
	case p.g != nil:
		return p.g.NLeft
	}
	return 0
}

// NProcs is the number of processors in the instance.
func (p Problem) NProcs() int {
	switch {
	case p.h != nil:
		return p.h.NProcs
	case p.g != nil:
		return p.g.NRight
	}
	return 0
}

// Fingerprint is the collision-resistant content hash (hex SHA-256) of
// the instance's canonical form — the identity isomorphic instances
// share. See internal/encode.
func (p Problem) Fingerprint() (string, error) {
	switch {
	case p.h != nil:
		return encode.FingerprintHypergraph(p.h)
	case p.g != nil:
		return encode.FingerprintBipartite(p.g)
	}
	return "", ErrEmptyProblem
}

// String describes the problem for logs and errors.
func (p Problem) String() string {
	switch {
	case p.h != nil:
		return fmt.Sprintf("MULTIPROC{%d tasks, %d procs, %d edges}", p.h.NTasks, p.h.NProcs, p.h.NumEdges())
	case p.g != nil:
		return fmt.Sprintf("SINGLEPROC{%d tasks, %d procs, %d edges}", p.g.NLeft, p.g.NRight, p.g.NumEdges())
	}
	return "Problem{}"
}

// MakespanLoads evaluates an assignment in the problem's own encoding:
// the per-processor load vector and its maximum.
func (p Problem) MakespanLoads(a []int32) (int64, []int64) {
	var loads []int64
	if p.h != nil {
		loads = core.HyperLoads(p.h, core.HyperAssignment(a))
	} else {
		loads = core.Loads(p.g, core.Assignment(a))
	}
	var m int64
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m, loads
}
