// Package registry is the authoritative catalog of semi-matching solvers.
// Every algorithm the repo implements — the paper's greedy heuristics, the
// vector heuristics, the exact solvers, the online variant — is registered
// here exactly once as a self-describing Solver (name, aliases, problem
// class, kind, cost class, context-aware solve function). All dispatch
// layers (the auto policy's race, bench, sched, batch, the CLIs) resolve
// algorithms through this package, so adding a solver is a one-line
// registration in catalog.go and it immediately becomes visible to
// listing flags, name parsing, benchmark grids and capability-based
// policies.
//
// Names resolve case-insensitively against both canonical names and
// aliases, scoped by problem class (the same alias — "bnb", "exact" — may
// mean different solvers for bipartite and hypergraph instances). Unknown
// names yield an error that suggests close matches and enumerates the
// class's catalog instead of panicking.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
)

// Class is the problem class a solver accepts.
type Class uint8

const (
	// SingleProc solvers take bipartite instances (sequential tasks).
	SingleProc Class = iota
	// MultiProc solvers take hypergraph instances (parallel tasks).
	MultiProc
)

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case SingleProc:
		return "SINGLEPROC"
	case MultiProc:
		return "MULTIPROC"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Kind classifies how a solver produces its schedule.
type Kind uint8

const (
	// Heuristic solvers are fast and give no optimality guarantee.
	Heuristic Kind = iota
	// Exact solvers prove optimality when they finish without error.
	Exact
	// Online solvers commit to each task irrevocably in arrival order.
	Online
)

// String returns the kind label used in listings.
func (k Kind) String() string {
	switch k {
	case Heuristic:
		return "heuristic"
	case Exact:
		return "exact"
	case Online:
		return "online"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Cost is a coarse running-time class, the capability a policy layer uses
// to decide whether a solver is affordable for a given instance size.
type Cost uint8

const (
	// CostNearLinear solvers run in O(|E| log |E|)-ish time — always safe.
	CostNearLinear Cost = iota
	// CostPolynomial solvers are polynomial but superlinear (matching-based).
	CostPolynomial
	// CostExponential solvers need a node budget; viable for small
	// instances only.
	CostExponential
)

// String returns the cost-class label used in listings.
func (c Cost) String() string {
	switch c {
	case CostNearLinear:
		return "near-linear"
	case CostPolynomial:
		return "polynomial"
	case CostExponential:
		return "exponential"
	default:
		return fmt.Sprintf("Cost(%d)", uint8(c))
	}
}

// Options carries every per-solver tuning knob; each solver reads only the
// field that concerns it, and the zero value is the paper's behaviour
// everywhere.
type Options struct {
	// Greedy tunes the bipartite greedy heuristics.
	Greedy core.GreedyOptions
	// Hyper tunes the hypergraph heuristics (the AfterLoad ablation).
	Hyper core.HyperOptions
	// Exact configures the polynomial SINGLEPROC-UNIT solver.
	Exact core.ExactOptions
	// BnB bounds the branch-and-bound searches. BnB.Workers sets the
	// worker count of the parallel solvers (BnB-SP-Par, BnB-MP-Par; 0
	// means GOMAXPROCS); the sequential BnB-SP and BnB-MP always run one
	// worker.
	BnB exact.Options
}

// Solver is one self-describing catalog entry. Exactly one of SolveSingle
// and SolveHyper is non-nil, matching Class.
type Solver struct {
	// Name is the canonical name (unique within the class, stable across
	// releases — it is what listings and results print).
	Name string
	// Aliases are alternative names accepted by lookup (case-insensitive,
	// unique within the class alongside every canonical name).
	Aliases []string
	// Class is the problem class the solver accepts.
	Class Class
	// Kind distinguishes heuristic, exact and online solvers.
	Kind Kind
	// Cost is the running-time class, for capability-based policies.
	Cost Cost
	// Aux marks auxiliary solvers (ablation variants, extension baselines)
	// excluded from default portfolios and benchmark tables but still
	// addressable by name.
	Aux bool
	// Parallel marks solvers that scale with Options.BnB.Workers
	// (internal search workers).
	Parallel bool
	// ParallelAlt names this solver's parallel counterpart in the same
	// class, when one is registered; policy layers use it via Preferred
	// to upgrade dispatch onto all available cores.
	ParallelAlt string
	// Summary is a one-line description for listings.
	Summary string

	// SolveSingle solves a bipartite instance (Class == SingleProc).
	// Exact solvers may return a valid-but-unproven incumbent alongside a
	// budget error.
	SolveSingle func(ctx context.Context, g *bipartite.Graph, opts Options) (core.Assignment, error)
	// SolveHyper solves a hypergraph instance (Class == MultiProc), with
	// the same incumbent convention.
	SolveHyper func(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (core.HyperAssignment, error)
}

// SolveInstance is the class-generic dispatch: it routes a *bipartite.Graph
// to SolveSingle and a *hypergraph.Hypergraph to SolveHyper, returning the
// assignment in the instance's own encoding (task → processor for
// SINGLEPROC, task → hyperedge id for MULTIPROC). A class mismatch — a
// hypergraph handed to a SINGLEPROC solver, or vice versa — is a
// descriptive error, not a panic. This is the entry point the unified
// solve layer (internal/solve) runs every named algorithm through.
func (s *Solver) SolveInstance(ctx context.Context, instance any, opts Options) ([]int32, error) {
	switch v := instance.(type) {
	case *bipartite.Graph:
		if s.SolveSingle == nil {
			return nil, fmt.Errorf("registry: %s is a %s solver; it cannot solve a bipartite (SINGLEPROC) instance", s.Name, s.Class)
		}
		a, err := s.SolveSingle(ctx, v, opts)
		return []int32(a), err
	case *hypergraph.Hypergraph:
		if s.SolveHyper == nil {
			return nil, fmt.Errorf("registry: %s is a %s solver; it cannot solve a hypergraph (MULTIPROC) instance", s.Name, s.Class)
		}
		a, err := s.SolveHyper(ctx, v, opts)
		return []int32(a), err
	default:
		return nil, fmt.Errorf("registry: unsupported instance type %T", instance)
	}
}

// catalog state: registration order is listing order, deterministic
// because register is only called from catalog.go's init-time build.
var (
	all    []*Solver
	byName = map[Class]map[string]*Solver{}
)

// register adds a solver to the catalog; it panics on malformed entries or
// duplicate names, which makes "registered exactly once" a build-time
// invariant the tests assert.
func register(s *Solver) {
	if s.Name == "" {
		panic("registry: solver with empty name")
	}
	if (s.SolveSingle == nil) == (s.SolveHyper == nil) {
		panic("registry: solver " + s.Name + " must set exactly one of SolveSingle/SolveHyper")
	}
	if (s.Class == SingleProc) != (s.SolveSingle != nil) {
		panic("registry: solver " + s.Name + " class does not match its solve function")
	}
	m := byName[s.Class]
	if m == nil {
		m = map[string]*Solver{}
		byName[s.Class] = m
	}
	for _, key := range append([]string{s.Name}, s.Aliases...) {
		k := strings.ToLower(key)
		if _, dup := m[k]; dup {
			panic("registry: duplicate solver name " + key + " in class " + s.Class.String())
		}
		m[k] = s
	}
	all = append(all, s)
}

// Solvers returns the full catalog in registration order (a copy).
func Solvers() []*Solver { return append([]*Solver(nil), all...) }

// ByClass returns the catalog entries of one class, in registration order.
func ByClass(c Class) []*Solver {
	var out []*Solver
	for _, s := range all {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}

// Heuristics returns the class's default heuristic lineup — kind Heuristic
// and not auxiliary — in registration order. This is the single source of
// the portfolio's default membership and the benchmark tables' columns.
func Heuristics(c Class) []*Solver {
	var out []*Solver
	for _, s := range ByClass(c) {
		if s.Kind == Heuristic && !s.Aux {
			out = append(out, s)
		}
	}
	return out
}

// Names extracts the canonical names of a solver list.
func Names(solvers []*Solver) []string {
	out := make([]string, len(solvers))
	for i, s := range solvers {
		out[i] = s.Name
	}
	return out
}

// ResolveClass maps algorithm names to solvers of one class, falling back
// to defaults when names is empty, and returns the canonical name list
// alongside. The first unknown name aborts with the suggested-names error.
// Portfolio membership, benchmark columns and batch validation all
// resolve through this one loop.
func ResolveClass(c Class, names, defaults []string) ([]string, []*Solver, error) {
	if len(names) == 0 {
		names = defaults
	}
	solvers := make([]*Solver, len(names))
	for i, name := range names {
		s, err := LookupClass(c, name)
		if err != nil {
			return nil, nil, err
		}
		solvers[i] = s
	}
	return Names(solvers), solvers, nil
}

// Preferred returns the solver a throughput-oriented policy layer should
// dispatch to in s's stead: the registered parallel counterpart named by
// s.ParallelAlt when there is one, otherwise s itself. The counterpart
// solves the same problem exactly (the equivalence suite in
// internal/exact asserts matching optima), so the upgrade is safe for
// any caller that judges schedules rather than solver identity.
func Preferred(s *Solver) *Solver {
	if s == nil || s.ParallelAlt == "" {
		return s
	}
	if alt, err := LookupClass(s.Class, s.ParallelAlt); err == nil {
		return alt
	}
	return s
}

// IncumbentError reports whether err is a budget or cancellation error
// whose solver still returned a valid (just not provably optimal)
// incumbent schedule — the "degrade, don't discard" convention of the
// exact solvers.
func IncumbentError(err error) bool {
	return errors.Is(err, exact.ErrLimit) || errors.Is(err, exact.ErrCancelled)
}

// FormatCatalog renders the full catalog as a human-readable listing, one
// class block at a time — the text behind the CLIs' -list-algorithms.
func FormatCatalog() string {
	var sb strings.Builder
	for _, c := range []Class{SingleProc, MultiProc} {
		fmt.Fprintf(&sb, "%s (%s instances):\n", c, map[Class]string{SingleProc: "bipartite", MultiProc: "hypergraph"}[c])
		for _, s := range ByClass(c) {
			alias := ""
			if len(s.Aliases) > 0 {
				alias = " (aliases: " + strings.Join(s.Aliases, ", ") + ")"
			}
			fmt.Fprintf(&sb, "  %-14s %-9s %-11s %s%s\n", s.Name, s.Kind, s.Cost, s.Summary, alias)
		}
	}
	return sb.String()
}

// LookupClass resolves a name or alias within one problem class,
// case-insensitively. Unknown names yield a suggested-names error.
func LookupClass(c Class, name string) (*Solver, error) {
	if s, ok := byName[c][strings.ToLower(name)]; ok {
		return s, nil
	}
	return nil, unknownNameError(c, name)
}

// Lookup resolves a name or alias across both classes. A name meaning
// different solvers in different classes (e.g. "bnb") is an ambiguity
// error naming both candidates; prefer LookupClass when the instance kind
// is known.
func Lookup(name string) (*Solver, error) {
	sp, spOK := byName[SingleProc][strings.ToLower(name)]
	mp, mpOK := byName[MultiProc][strings.ToLower(name)]
	switch {
	case spOK && mpOK:
		return nil, fmt.Errorf("registry: algorithm %q is ambiguous: %s (%s) or %s (%s); resolve per problem class",
			name, sp.Name, sp.Class, mp.Name, mp.Class)
	case spOK:
		return sp, nil
	case mpOK:
		return mp, nil
	}
	// Suggest across the whole catalog: the caller gave no class.
	var sb strings.Builder
	fmt.Fprintf(&sb, "registry: unknown algorithm %q", name)
	if sug := suggest(name, all); len(sug) > 0 {
		fmt.Fprintf(&sb, " (did you mean %s?)", strings.Join(sug, ", "))
	}
	fmt.Fprintf(&sb, "; known algorithms: %s", strings.Join(Names(all), ", "))
	return nil, fmt.Errorf("%s", sb.String())
}

func unknownNameError(c Class, name string) error {
	solvers := ByClass(c)
	var sb strings.Builder
	fmt.Fprintf(&sb, "registry: unknown %s algorithm %q", c, name)
	if sug := suggest(name, solvers); len(sug) > 0 {
		fmt.Fprintf(&sb, " (did you mean %s?)", strings.Join(sug, ", "))
	}
	fmt.Fprintf(&sb, "; known: %s", strings.Join(Names(solvers), ", "))
	return fmt.Errorf("%s", sb.String())
}

// suggest returns canonical names whose name or alias is within edit
// distance 2 of the input (case-insensitive), nearest first.
func suggest(name string, solvers []*Solver) []string {
	lower := strings.ToLower(name)
	type scored struct {
		name string
		d    int
	}
	var cands []scored
	for _, s := range solvers {
		best := -1
		for _, key := range append([]string{s.Name}, s.Aliases...) {
			if d := editDistance(lower, strings.ToLower(key)); best < 0 || d < best {
				best = d
			}
		}
		if best >= 0 && best <= 2 {
			cands = append(cands, scored{s.Name, best})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, sub)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
