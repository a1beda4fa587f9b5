package solve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"semimatch/internal/cert"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/refine"
	"semimatch/internal/registry"
	"semimatch/internal/telemetry"
)

// ErrVerifyFailed reports that WithVerify was requested and the result's
// certificate did not withstand independent verification. The Report is
// still returned — with Status downgraded from StatusOptimal if it
// claimed a proof — so callers can keep the schedule while distrusting
// the claim.
var ErrVerifyFailed = errors.New("solve: certificate verification failed")

// Defaults of the auto policy's exact-attempt stage.
const (
	// DefaultExactTaskLimit is the largest instance (in tasks) that gets a
	// branch-and-bound attempt when Options.ExactTaskLimit is zero.
	DefaultExactTaskLimit = 16
	// DefaultExactNodes is the auto policy's branch-and-bound node budget
	// when Options.NodeBudget is zero — small enough to bound each attempt
	// to tens of milliseconds.
	DefaultExactNodes = 2_000_000
)

// Status classifies how trustworthy a Report's schedule is.
type Status uint8

const (
	// StatusHeuristic is a valid schedule with no optimality proof; the
	// solve ran to completion or stopped at its node budget, so the same
	// request gets the same answer.
	StatusHeuristic Status = iota
	// StatusOptimal is a provably optimal schedule: its certificate
	// carries an optimality witness.
	StatusOptimal
	// StatusTruncated is a valid schedule from a solve a deadline or
	// cancellation cut short — the best found so far, not provably the
	// best possible.
	StatusTruncated
)

// String returns the status label used in listings and JSON.
func (s Status) String() string {
	switch s {
	case StatusHeuristic:
		return "heuristic"
	case StatusOptimal:
		return "optimal"
	case StatusTruncated:
		return "truncated"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Report is the unified outcome of one Run, in the problem's own
// encoding regardless of class.
type Report struct {
	// Class is the problem class that was solved.
	Class registry.Class
	// Solver is the canonical registry name of what produced the
	// schedule: the named algorithm, the winning heuristic-race member,
	// or the exact stage's solver.
	Solver string
	// Assignment maps each task to its processor (SINGLEPROC) or chosen
	// hyperedge id (MULTIPROC).
	Assignment []int32
	// Loads is the per-processor load vector of Assignment.
	Loads []int64
	// Makespan is the maximum processor load.
	Makespan int64
	// LowerBound is the certificate's lower bound on the optimal
	// makespan: the makespan itself when the certificate's witness closes
	// the gap, else the larger of the average-load bound (Eq. (1) for
	// MULTIPROC) and the max-element bound. Without a certificate it is
	// that larger cheap bound (cert.Bounds).
	LowerBound int64
	// Status reports the schedule's optimality class, derived from the
	// certificate: StatusOptimal exactly when its witness is not none,
	// else StatusTruncated when the deadline or a cancellation ended the
	// Run, else StatusHeuristic.
	Status Status
	// Stats carries branch-and-bound search statistics when an exact
	// solver ran (zero otherwise).
	Stats exact.SearchStats
	// Certificate is the proof-carrying form of this result: the claims —
	// fingerprint, schedule, makespan, lower bound, optimality witness —
	// that cert.Verify can check against the instance without trusting
	// this process. Nil only when the Run produced no schedule or the
	// instance could not be fingerprinted.
	Certificate *cert.Certificate
	// Trust is the tier verification established. It is meaningful only
	// when verification ran (WithVerify, or a verifying caller such as
	// the service); otherwise it stays TierHeuristic regardless of
	// Status.
	Trust cert.Tier
	// Incumbents is the number of observations delivered to the
	// registered Observer (0 without one).
	Incumbents int
	// Elapsed is the wall-clock time of the whole Run.
	Elapsed time.Duration
	// Trace is the solve's span tree when tracing was requested
	// (WithTrace), nil otherwise. The root "solve" span's children cover
	// the Run's phases — "race"/"exact" (with nested compile,
	// root-bounds, greedy, search), "refine", "verify" — each with wall
	// time and attributes; emit with Trace.WriteNDJSON or Trace.Format.
	Trace *telemetry.Trace

	// stageMakespan tracks the best makespan during policy staging;
	// Makespan/Loads are recomputed from the final Assignment at the end
	// of RunOptions.
	stageMakespan int64
	// proved records that a solver proved the staged schedule optimal —
	// the attestation cert.Issue turns into a witness.
	proved bool
}

// Optimal reports a provably optimal schedule.
func (r *Report) Optimal() bool { return r.Status == StatusOptimal }

// Options is the resolved option set of one Run. Most callers use the
// functional With* options; dispatch layers that need fine-grained control
// (the batch, the service, sessions) fill the struct directly, or resolve
// the With* options with Apply, and call RunOptions.
type Options struct {
	// Algorithm names one registry solver to run (any name or alias, in
	// the problem's class). Empty selects the auto policy: a heuristic
	// race first, then — when the instance is small enough — an exact
	// branch-and-bound attempt that can prove optimality.
	Algorithm string
	// Portfolio restricts the auto policy's heuristic race; nil means the
	// class's full default heuristic lineup. Ignored with Algorithm.
	Portfolio []string
	// Deadline bounds the whole Run, layered under ctx; 0 means none.
	// When it expires the best schedule found so far is returned with
	// StatusTruncated (unless its certificate proves it optimal).
	Deadline time.Duration
	// Workers bounds solver-internal parallelism: the auto policy's
	// heuristic race fans out to at most Workers members at once (both
	// classes), and a parallel branch-and-bound runs Workers search
	// workers. 0 means GOMAXPROCS.
	Workers int
	// NodeBudget caps branch-and-bound search nodes. 0 means the
	// default: DefaultExactNodes for the auto policy's exact attempt, the
	// engine default (20M) for a named exact algorithm.
	NodeBudget int64
	// ExactTaskLimit is the largest instance (in tasks) the auto policy
	// gives an exact attempt; 0 means DefaultExactTaskLimit, negative
	// disables the exact stage. Ignored with Algorithm.
	ExactTaskLimit int
	// InitialIncumbent warm-starts any exact stage with a known feasible
	// schedule in the problem's own encoding (task → processor for
	// SINGLEPROC, task → hyperedge id for MULTIPROC): branch and bound
	// starts from its makespan as the upper bound instead of the greedy
	// seed, so a re-solve of a slightly-changed instance explores at most
	// as much tree as a cold solve. Invalid or non-improving warm starts
	// are ignored; results are never worse for having one.
	InitialIncumbent []int32
	// Refine post-processes MULTIPROC schedules with local search (never
	// worse). SINGLEPROC problems ignore it.
	Refine bool
	// Verify re-checks the result's certificate against the instance
	// before returning: Report.Trust is set to the established tier, and
	// a StatusOptimal claim that fails verification is downgraded to
	// StatusHeuristic with ErrVerifyFailed returned alongside the Report.
	Verify bool
	// Observer receives the incumbent trajectory; see Observer.
	Observer Observer
	// Trace records the solve's phase spans into Report.Trace; see
	// Report.Trace for the span taxonomy. Spans are per phase, never per
	// node, so tracing does not perturb the search.
	Trace bool
	// Progress receives periodic search-introspection snapshots (nodes,
	// rate, incumbent/bound gap) from any exact stage that runs, at most
	// one per telemetry.ProgressInterval. Polled at the engines' existing
	// checkpoints: node counts are identical with and without it.
	Progress telemetry.ProgressFunc

	// trace is the live root span when Trace is set; RunOptions owns it.
	trace *telemetry.Span
}

// Option is one functional Run option.
type Option func(*Options)

// WithAlgorithm runs one named registry solver (name or alias) instead of
// the auto policy.
func WithAlgorithm(name string) Option { return func(o *Options) { o.Algorithm = name } }

// WithDeadline bounds the whole Run; on expiry the best schedule found so
// far is returned with StatusTruncated.
func WithDeadline(d time.Duration) Option { return func(o *Options) { o.Deadline = d } }

// WithWorkers bounds solver-internal parallelism (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithNodeBudget caps branch-and-bound search nodes.
func WithNodeBudget(n int64) Option { return func(o *Options) { o.NodeBudget = n } }

// WithRefine post-processes MULTIPROC schedules with local search.
func WithRefine() Option { return func(o *Options) { o.Refine = true } }

// WithPortfolio restricts the auto policy's heuristic race to the named
// members (registry names or aliases, resolved in the problem's class).
func WithPortfolio(algorithms ...string) Option {
	return func(o *Options) { o.Portfolio = algorithms }
}

// WithWarmStart seeds any exact stage with a known feasible schedule in
// the problem's own encoding; see Options.InitialIncumbent.
func WithWarmStart(assignment []int32) Option {
	return func(o *Options) { o.InitialIncumbent = assignment }
}

// WithObserver registers an incumbent observer; see Observer.
func WithObserver(fn Observer) Option { return func(o *Options) { o.Observer = fn } }

// WithVerify independently verifies the result's certificate before Run
// returns: Report.Trust carries the established tier, and an optimality
// claim that does not verify is downgraded (see Options.Verify).
func WithVerify() Option { return func(o *Options) { o.Verify = true } }

// WithExactLimit bounds the auto policy's exact-attempt stage to
// instances of at most tasks tasks (negative disables the stage).
func WithExactLimit(tasks int) Option { return func(o *Options) { o.ExactTaskLimit = tasks } }

// WithTrace records the solve's phase spans into Report.Trace.
func WithTrace() Option { return func(o *Options) { o.Trace = true } }

// WithProgress registers a periodic search-introspection hook; see
// Options.Progress.
func WithProgress(fn telemetry.ProgressFunc) Option { return func(o *Options) { o.Progress = fn } }

func (o Options) exactTaskLimit() int {
	if o.ExactTaskLimit == 0 {
		return DefaultExactTaskLimit
	}
	return o.ExactTaskLimit
}

func (o Options) exactNodes() int64 {
	if o.NodeBudget <= 0 {
		return DefaultExactNodes
	}
	return o.NodeBudget
}

// Run solves a Problem of either class and returns the unified Report.
// With WithAlgorithm it runs exactly that registry solver; otherwise the
// auto policy races the class's heuristic lineup and then, when the
// instance is small enough, attempts an exact branch-and-bound proof.
//
// Run is an anytime entry point: rather than failing, a deadline (ctx or
// WithDeadline) degrades the answer to the best schedule found so far
// (StatusTruncated) and a node budget to the best schedule the budget
// allowed (StatusHeuristic); WithObserver streams the incumbent
// trajectory while the solve is still running. Run returns an
// error only when no schedule at all could be produced — with one
// exception: an unexpected failure in the auto policy's exact stage
// returns the heuristic-stage Report alongside the error, so callers that
// degrade gracefully can keep the schedule.
func Run(ctx context.Context, p Problem, opts ...Option) (*Report, error) {
	return RunOptions(ctx, p, Apply(opts...))
}

// Apply returns the Options that opts set, applied in order to the zero
// Options; nil options are skipped.
func Apply(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// RunOptions is Run with a resolved Options struct; see Run for the
// contract.
func RunOptions(ctx context.Context, p Problem, o Options) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	if o.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Deadline)
		defer cancel()
	}
	obs := newObsState(o.Observer, start)
	if o.Trace {
		o.trace = telemetry.StartSpan("solve")
		o.trace.SetAttr("class", p.Class().String())
		if o.Algorithm != "" {
			o.trace.SetAttr("algorithm", o.Algorithm)
		}
	}

	var rep *Report
	var err error
	if o.Algorithm != "" {
		rep, err = runNamed(ctx, p, o, obs)
	} else {
		rep, err = runAuto(ctx, p, o, obs)
	}
	if rep == nil {
		return nil, err
	}
	ended := ctx.Err() != nil
	rep.Class = p.Class()
	rep.Makespan, rep.Loads = p.MakespanLoads(rep.Assignment)
	if rep.Assignment != nil {
		rep.Certificate = cert.Issue(p.instance(), rep.Assignment, rep.Makespan,
			rep.proved, rep.Stats.Nodes, rep.Solver)
	}
	rep.grade(p, ended)
	if o.Verify {
		vs := o.trace.StartChild("verify")
		verr := verifyReport(p, rep)
		vs.SetAttr("trust", rep.Trust.String())
		vs.End()
		if verr != nil {
			err = errors.Join(err, verr)
		}
	}
	if o.trace != nil {
		o.trace.SetAttr("solver", rep.Solver)
		o.trace.SetAttr("makespan", rep.Makespan)
		o.trace.SetAttr("status", rep.Status.String())
		o.trace.End()
		rep.Trace = o.trace
	}
	rep.Elapsed = time.Since(start)
	obs.final(rep)
	rep.Incumbents = obs.events()
	return rep, err
}

// grade derives Status and LowerBound from r's certificate, the one
// place optimality is decided; ended reports that ctx was done when the
// solve stages returned.
func (r *Report) grade(p Problem, ended bool) {
	switch c := r.Certificate; {
	case c != nil && c.Witness.Kind != cert.WitnessNone:
		r.Status = StatusOptimal
	case ended:
		r.Status = StatusTruncated
	default:
		r.Status = StatusHeuristic
	}
	if r.Certificate != nil {
		r.LowerBound = r.Certificate.LowerBound
	} else {
		// Bounds fails only on an unsupported instance; p is validated.
		avg, maxElem, _ := cert.Bounds(p.instance())
		r.LowerBound = max(avg, maxElem)
	}
}

// verifyReport re-checks rep's certificate against the instance and
// grades rep.Trust. A StatusOptimal claim that fails verification is
// downgraded to StatusHeuristic — optimality survives only proof.
func verifyReport(p Problem, rep *Report) error {
	rep.Trust = cert.TierHeuristic
	if rep.Certificate == nil {
		if rep.Assignment == nil {
			return nil // nothing to certify, nothing claimed
		}
		if rep.Status == StatusOptimal {
			rep.Status = StatusHeuristic
		}
		return fmt.Errorf("%w: no certificate issued", ErrVerifyFailed)
	}
	tier, verr := cert.Verify(p.instance(), rep.Certificate)
	if verr != nil {
		if rep.Status == StatusOptimal {
			rep.Status = StatusHeuristic
		}
		return fmt.Errorf("%w: %w", ErrVerifyFailed, verr)
	}
	rep.Trust = tier
	return nil
}

// runNamed executes exactly one registry solver.
func runNamed(ctx context.Context, p Problem, o Options, obs *obsState) (*Report, error) {
	sol, err := registry.LookupClass(p.Class(), o.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	rep := &Report{Solver: sol.Name}
	ropts := exact.Options{
		Workers:          o.Workers,
		MaxNodes:         o.NodeBudget,
		InitialIncumbent: o.InitialIncumbent,
		Stats:            &rep.Stats,
		// The engine's phase spans (compile, greedy, search) attach
		// directly under the solve root on the named path — there is no
		// policy staging to group them under.
		Trace:    o.trace,
		Progress: o.Progress,
	}
	if obs.active() {
		ropts.Observer = obs.exactFn(sol.Name)
	}
	a, err := sol.SolveInstance(ctx, p.instance(), ropts)
	if err != nil && (a == nil || !registry.IncumbentError(err)) {
		return nil, fmt.Errorf("solve: %s: %w", sol.Name, err)
	}
	// A search cut short keeps its incumbent, unproven.
	rep.proved = err == nil && sol.Kind == registry.Exact
	if o.Refine && p.Class() == registry.MultiProc {
		rs := o.trace.StartChild("refine")
		refined := refine.RefineCtx(ctx, p.h, core.HyperAssignment(a), refine.Options{}).Assignment
		a = []int32(refined)
		rs.End()
	}
	rep.Assignment = a
	return rep, nil
}

// runAuto applies the class-generic per-instance policy: the heuristic
// race first (always fast), then the exact stage when the instance gets
// one, falling back to the best schedule found when a budget expires.
func runAuto(ctx context.Context, p Problem, o Options, obs *obsState) (*Report, error) {
	rep, err := race(ctx, p, o, obs)
	if err != nil {
		return nil, err
	}
	if ctx.Err() == nil && !unitBoundMet(p, rep.stageMakespan) {
		err = exactStage(ctx, p, o, obs, rep)
	}
	return rep, err
}

// unitBoundMet reports a unit SINGLEPROC problem whose staged makespan m
// already equals the larger of its average-load and max-element bounds.
// ExactUnit could then only prove m optimal again: cert.Issue takes
// those bounds as the witness before it reads a solver's proof, and
// mergeExact adopts only a strictly better schedule. The branch and
// bound classes still search, since skipping would change Stats.Nodes.
func unitBoundMet(p Problem, m int64) bool {
	if p.g == nil || !p.g.Unit() {
		return false
	}
	avg, maxElem, _ := cert.Bounds(p.g)
	return m == max(avg, maxElem)
}

// The auto policy's solvers, resolved once since the catalog is fixed
// after init: each class's default race lineup (indexed by class), the
// polynomial ExactUnit for unit SINGLEPROC instances, and each class's
// parallel branch and bound, which runs the sequential search at one
// worker.
var (
	defaultLineup = [...][]*registry.Solver{
		registry.SingleProc: registry.Heuristics(registry.SingleProc),
		registry.MultiProc:  registry.Heuristics(registry.MultiProc),
	}
	exactUnit = mustLookup(registry.SingleProc, "ExactUnit")
	exactSP   = mustLookup(registry.SingleProc, "BnB-SP-Par")
	exactMP   = mustLookup(registry.MultiProc, "BnB-MP-Par")
)

// mustLookup resolves a name the catalog registers at init; a miss is a
// bug in the catalog, not in any input.
func mustLookup(c registry.Class, name string) *registry.Solver {
	s, err := registry.LookupClass(c, name)
	if err != nil {
		panic(err)
	}
	return s
}

// exactSolver is the auto policy's exact-stage choice for p, or nil when p
// gets no exact attempt. A unit SINGLEPROC instance gets ExactUnit at any
// size; every other instance gets the exponential branch and bound only
// up to limit tasks.
func exactSolver(p Problem, limit int) *registry.Solver {
	switch {
	case limit <= 0:
		return nil
	case p.g != nil && p.g.Unit():
		return exactUnit
	case p.NTasks() > limit:
		return nil
	case p.Class() == registry.SingleProc:
		return exactSP
	default:
		return exactMP
	}
}

// exactStage is the auto policy's exact attempt: it runs exactSearch and
// folds the outcome into rep (see mergeExact).
func exactStage(ctx context.Context, p Problem, o Options, obs *obsState, rep *Report) error {
	sol, a, exErr := exactSearch(ctx, p, o, obs, &rep.Stats)
	if sol == nil {
		return nil
	}
	var m int64
	if a != nil {
		m, _ = p.MakespanLoads(a)
	}
	if err := mergeExact(rep, sol.Name, a, m, exErr); err != nil {
		return fmt.Errorf("solve: %s: %w", sol.Name, err)
	}
	return nil
}

// exactSearch is the auto policy's exact search on p: exactSolver's
// choice, run with the policy's node budget, o's warm start, workers and
// progress hook, traced as an "exact" child of o.trace, counting into
// stats. It returns a nil solver when p gets no exact attempt.
func exactSearch(ctx context.Context, p Problem, o Options, obs *obsState, stats *exact.SearchStats) (*registry.Solver, []int32, error) {
	sol := exactSolver(p, o.exactTaskLimit())
	if sol == nil {
		return nil, nil, nil
	}
	span := o.trace.StartChild("exact")
	span.SetAttr("solver", sol.Name)
	defer span.End()
	ropts := exact.Options{
		MaxNodes:         o.exactNodes(),
		InitialIncumbent: o.InitialIncumbent,
		Stats:            stats,
		Trace:            span,
		Progress:         o.Progress,
		Workers:          o.Workers,
	}
	if obs.active() {
		ropts.Observer = obs.exactFn(sol.Name)
	}
	a, err := sol.SolveInstance(ctx, p.instance(), ropts)
	return sol, a, err
}

// ColdNodes is the node count of the auto policy's exact stage on p run
// cold: the search RunOptions(ctx, p, o) runs after its heuristic race,
// without o.InitialIncumbent and without observer, trace or progress
// hook. No race runs, since the exact stage never starts from its
// winner, and no certificate is issued. o.Deadline bounds the search as
// it bounds a Run. ColdNodes is 0 when p is invalid, gets no exact
// attempt, or ctx is done before the search starts; o.Algorithm and
// o.Portfolio are ignored.
func ColdNodes(ctx context.Context, p Problem, o Options) int64 {
	if p.Validate() != nil {
		return 0
	}
	if o.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Deadline)
		defer cancel()
	}
	if ctx.Err() != nil {
		return 0
	}
	o.InitialIncumbent, o.Progress, o.trace = nil, nil, nil
	var stats exact.SearchStats
	// A search stopped by its budget, the deadline or an error still
	// counted the nodes it expanded, as a cold Run's Stats do.
	_, _, _ = exactSearch(ctx, p, o, nil, &stats)
	return stats.Nodes
}

// adopt replaces the staged schedule.
func (r *Report) adopt(solver string, a []int32, m int64) {
	r.Assignment, r.Solver, r.stageMakespan = a, solver, m
}

// mergeExact folds one exact-stage outcome into the heuristic-stage
// report: the search's schedule is adopted only when it strictly
// improves (so on ties a refined heuristic load vector survives), and a
// completed search proves whichever schedule is kept optimal. A search
// cut short proves nothing; any other error is surfaced to the caller.
func mergeExact(rep *Report, solver string, a []int32, m int64, exErr error) error {
	if exErr != nil && (a == nil || !registry.IncumbentError(exErr)) {
		// Structural errors (no processors, isolated task) would have
		// failed the heuristic stage already; surface anything unexpected
		// alongside the stage-1 report.
		return exErr
	}
	if m < rep.stageMakespan {
		rep.adopt(solver, a, m)
	}
	rep.proved = exErr == nil
	return nil
}
