package semimatch

import (
	"context"
	"fmt"
	"io"

	"semimatch/internal/adversarial"
	"semimatch/internal/batch"
	"semimatch/internal/bipartite"
	"semimatch/internal/cert"
	"semimatch/internal/core"
	"semimatch/internal/encode"
	"semimatch/internal/exact"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
	"semimatch/internal/online"
	"semimatch/internal/registry"
	"semimatch/internal/sched"
	"semimatch/internal/service"
	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

// --- The unified solve API: Problem → Run → Report ---

// Problem is one instance of either problem class — a sum over *Graph
// (SINGLEPROC) and *Hypergraph (MULTIPROC) carrying its class and
// canonical fingerprint. Build one with GraphProblem, HypergraphProblem
// or NewProblem; the zero value is empty and solves to an error.
type Problem = solve.Problem

// GraphProblem wraps a SINGLEPROC instance as a Problem.
func GraphProblem(g *Graph) Problem { return solve.Bipartite(g) }

// HypergraphProblem wraps a MULTIPROC instance as a Problem.
func HypergraphProblem(h *Hypergraph) Problem { return solve.Hyper(h) }

// NewProblem wraps any supported instance type (*Graph, *Hypergraph, or a
// Problem) as a Problem.
func NewProblem(instance any) (Problem, error) { return solve.NewProblem(instance) }

// Report is the unified outcome of one Run: the schedule in the problem's
// own encoding, its makespan and lower bound, the optimality status, the
// producing solver's name, search statistics and wall time.
type Report = solve.Report

// SolveStatus classifies how trustworthy a Report's schedule is.
type SolveStatus = solve.Status

// SolveStatus values.
const (
	StatusHeuristic = solve.StatusHeuristic
	StatusOptimal   = solve.StatusOptimal
	StatusTruncated = solve.StatusTruncated
)

// Option is one functional Run option.
type Option = solve.Option

// Run options.
var (
	// WithAlgorithm runs one named registry solver (name or alias)
	// instead of the auto policy.
	WithAlgorithm = solve.WithAlgorithm
	// WithDeadline bounds the whole Run; on expiry the best schedule
	// found so far is returned with StatusTruncated, unless its
	// certificate proves it optimal.
	WithDeadline = solve.WithDeadline
	// WithWorkers bounds solver-internal parallelism (0 = GOMAXPROCS).
	WithWorkers = solve.WithWorkers
	// WithNodeBudget caps branch-and-bound search nodes.
	WithNodeBudget = solve.WithNodeBudget
	// WithWarmStart seeds any exact stage with a known feasible schedule
	// in the problem's own encoding: the branch-and-bound engines adopt
	// it as their initial incumbent and prune against its makespan from
	// the first node. An infeasible seed is ignored.
	WithWarmStart = solve.WithWarmStart
	// WithRefine post-processes MULTIPROC schedules with local search.
	WithRefine = solve.WithRefine
	// WithPortfolio restricts the auto policy's heuristic race to the
	// named members.
	WithPortfolio = solve.WithPortfolio
	// WithObserver registers an incumbent observer on the run.
	WithObserver = solve.WithObserver
	// WithExactLimit bounds the auto policy's exact-attempt stage to
	// instances of at most that many tasks (negative disables it).
	WithExactLimit = solve.WithExactLimit
	// WithVerify independently verifies the result's certificate before
	// Run returns: Report.Trust carries the established tier, and an
	// optimality claim that does not verify is downgraded to
	// StatusHeuristic with ErrVerifyFailed returned alongside the Report.
	WithVerify = solve.WithVerify
	// WithTrace records the solve's phase spans (compile, root-bounds,
	// greedy, search, refine, verify) into Report.Trace.
	WithTrace = solve.WithTrace
	// WithProgress registers a periodic search-introspection hook that
	// receives SearchProgress snapshots during exact stages.
	WithProgress = solve.WithProgress
)

// Span is one timed phase of a solve or request: a name, a wall-clock
// interval, ordered attributes, and child spans forming a tree. Emit a
// tree as NDJSON with WriteNDJSON or human-readable with Format.
type Span = telemetry.Span

// Trace is the root Span of one recorded solve, carried on
// Report.Trace when WithTrace is set.
type Trace = telemetry.Trace

// SearchProgress is one periodic snapshot of a running branch-and-bound
// search (nodes, rate, incumbent/bound gap, workers), delivered to a
// WithProgress hook.
type SearchProgress = telemetry.SearchProgress

// ErrVerifyFailed reports that WithVerify was requested and the result's
// certificate did not withstand independent verification.
var ErrVerifyFailed = solve.ErrVerifyFailed

// Incumbent is one observation of a run's best-schedule-so-far; see
// Observer.
type Incumbent = solve.Incumbent

// Observer receives the incumbent trajectory of a Run registered with
// WithObserver: the makespan-decreasing sequence of best schedules found
// so far, closed by one Final observation matching the returned Report.
// Calls are serialized, polled at solver checkpoints (never per search
// node), and panic-isolated.
type Observer = solve.Observer

// Run solves a Problem of either class — the single class-generic entry
// point every dispatch layer (batch, service, CLIs) routes through. With
// WithAlgorithm it runs exactly that registry solver; otherwise the auto
// policy races the class's heuristic lineup and then, when the instance
// is small enough, attempts an exact branch-and-bound proof. A deadline
// or cancellation degrades the answer to the best schedule found so far
// (StatusTruncated), and a node budget to the best schedule the budget
// allowed (StatusHeuristic), instead of failing; WithObserver watches
// bounds tighten during a long solve.
func Run(ctx context.Context, p Problem, opts ...Option) (*Report, error) {
	return solve.Run(ctx, p, opts...)
}

// --- Proof-carrying results ---

// Certificate is the proof-carrying form of one result: the problem's
// canonical fingerprint, the schedule, its claimed makespan and lower
// bound, and an optimality witness naming which argument closed the gap.
// Every Report and ServiceResult carries one; Verify checks it against
// the instance without trusting its producer.
type Certificate = cert.Certificate

// CertWitness is a certificate's optimality argument.
type CertWitness = cert.Witness

// WitnessKind names the optimality argument of a Certificate.
type WitnessKind = cert.WitnessKind

// WitnessKind values: no claim, a lower bound that equals the makespan
// (re-derivable from the instance), or a solver attestation of complete
// search.
const (
	WitnessNone        = cert.WitnessNone
	WitnessAverageLoad = cert.WitnessAverageLoad
	WitnessMaxElement  = cert.WitnessMaxElement
	WitnessExhaustive  = cert.WitnessExhaustive
	WitnessPacking     = cert.WitnessPacking
	WitnessMatching    = cert.WitnessMatching
)

// TrustTier is the trust level Verify establishes for a certificate.
type TrustTier = cert.Tier

// TrustTier values, weakest to strongest.
const (
	TierHeuristic = cert.TierHeuristic
	TierAttested  = cert.TierAttested
	TierVerified  = cert.TierVerified
)

// Verify checks a Certificate against the instance (*Graph or
// *Hypergraph) it claims to certify, trusting nothing: the fingerprint,
// the schedule's feasibility, the loads/makespan and the claimed bound
// are all recomputed. It returns the trust tier the certificate earns —
// TierVerified when a re-derived bound proves optimality locally,
// TierAttested when optimality rests on a consistent solver attestation,
// TierHeuristic when no optimality is claimed — or an error describing
// the first claim that does not hold.
func Verify(instance any, c *Certificate) (TrustTier, error) { return cert.Verify(instance, c) }

// CertBounds re-derives the two cheap instance-level lower bounds
// certificates are checked against: the average-load bound and the
// max-element bound.
func CertBounds(instance any) (avg, maxElem int64, err error) { return cert.Bounds(instance) }

// --- Solver registry (discovery) ---

// Solver is one self-describing entry of the solver registry: name,
// aliases, problem class, kind, cost class and a context-aware solve
// function. Every algorithm in this package is registered exactly once,
// and all dispatch layers (Run, SolveProblems, the bench harness, Solve
// and the CLIs) resolve algorithms through the registry.
type Solver = registry.Solver

// SolverOptions carries per-solver tuning knobs for Solver.SolveSingle /
// Solver.SolveHyper; the zero value is the paper's behaviour everywhere.
type SolverOptions = registry.Options

// SolverClass is the problem class a solver accepts.
type SolverClass = registry.Class

// SolverKind distinguishes heuristic, exact and online solvers.
type SolverKind = registry.Kind

// SolverCost is a solver's coarse running-time class.
type SolverCost = registry.Cost

// Solver capability values.
const (
	ClassSingleProc = registry.SingleProc
	ClassMultiProc  = registry.MultiProc

	KindHeuristic = registry.Heuristic
	KindExact     = registry.Exact
	KindOnline    = registry.Online

	CostNearLinear  = registry.CostNearLinear
	CostPolynomial  = registry.CostPolynomial
	CostExponential = registry.CostExponential
)

// Solvers enumerates the full solver catalog in its deterministic listing
// order.
func Solvers() []*Solver { return registry.Solvers() }

// LookupSolver resolves an algorithm name or alias (case-insensitive)
// across both problem classes. Names that mean different solvers per class
// (e.g. "bnb") and unknown names yield descriptive errors; unknown names
// come with suggestions.
func LookupSolver(name string) (*Solver, error) { return registry.Lookup(name) }

// LookupClassSolver resolves a name within one problem class — use it when
// the instance kind is known.
func LookupClassSolver(class SolverClass, name string) (*Solver, error) {
	return registry.LookupClass(class, name)
}

// Graph is a bipartite SINGLEPROC instance: tasks × processors with
// optional execution-time edge weights. Build one with NewGraphBuilder.
type Graph = bipartite.Graph

// GraphBuilder accumulates task→processor edges.
type GraphBuilder = bipartite.Builder

// NewGraphBuilder returns a builder for a SINGLEPROC instance with nTasks
// tasks and nProcs processors.
func NewGraphBuilder(nTasks, nProcs int) *GraphBuilder {
	return bipartite.NewBuilder(nTasks, nProcs)
}

// Hypergraph is a MULTIPROC instance: each hyperedge is one configuration
// (a processor set plus a weight) of exactly one task.
type Hypergraph = hypergraph.Hypergraph

// HypergraphBuilder accumulates task configurations.
type HypergraphBuilder = hypergraph.Builder

// NewHypergraphBuilder returns a builder for a MULTIPROC instance.
func NewHypergraphBuilder(nTasks, nProcs int) *HypergraphBuilder {
	return hypergraph.NewBuilder(nTasks, nProcs)
}

// Assignment maps each task to its processor (SINGLEPROC semi-matching).
type Assignment = core.Assignment

// HyperAssignment maps each task to its chosen configuration (MULTIPROC
// semi-matching).
type HyperAssignment = core.HyperAssignment

// GreedyOptions tunes the bipartite greedy heuristics; the zero value is
// the paper's behaviour.
type GreedyOptions = core.GreedyOptions

// HyperOptions tunes the hypergraph heuristics; the zero value is the
// paper's behaviour with the fast load-vector machinery.
type HyperOptions = core.HyperOptions

// ExactOptions configures the exact SINGLEPROC-UNIT algorithm.
type ExactOptions = core.ExactOptions

// Search strategies and feasibility testers for ExactUnit.
const (
	SearchIncremental = core.SearchIncremental
	SearchBisection   = core.SearchBisection
	TestCapacitated   = core.TestCapacitated
	TestReplicate     = core.TestReplicate
	TestReplicateHK   = core.TestReplicateHK
)

// SINGLEPROC heuristics (Sec. IV-B).
var (
	BasicGreedy    = core.BasicGreedy
	SortedGreedy   = core.SortedGreedy
	DoubleSorted   = core.DoubleSorted
	ExpectedGreedy = core.ExpectedGreedy
)

// LPTGreedy is the longest-processing-time-first baseline for weighted
// SINGLEPROC (extension beyond the paper's unit-only heuristics).
var LPTGreedy = core.LPTGreedy

// LowerBoundSingle is the weighted SINGLEPROC lower bound
// max(⌈Σw/p⌉, max w).
var LowerBoundSingle = core.LowerBoundSingle

// ExactUnit solves SINGLEPROC-UNIT optimally (Sec. IV-A) and returns the
// assignment and the optimal makespan.
var ExactUnit = core.ExactUnit

// HarveyOptimal is the cost-reducing-path optimal semi-matching algorithm
// of Harvey et al., an independent exact SINGLEPROC-UNIT baseline.
var HarveyOptimal = core.HarveyOptimal

// MULTIPROC heuristics (Sec. IV-D).
var (
	SortedGreedyHyp         = core.SortedGreedyHyp
	VectorGreedyHyp         = core.VectorGreedyHyp
	ExpectedGreedyHyp       = core.ExpectedGreedyHyp
	ExpectedVectorGreedyHyp = core.ExpectedVectorGreedyHyp
)

// Exact-arithmetic (scaled-integer) variants of the expected heuristics —
// an ablation for floating-point tie sensitivity.
var (
	ExpectedGreedyHypExact       = core.ExpectedGreedyHypExact
	ExpectedVectorGreedyHypExact = core.ExpectedVectorGreedyHypExact
)

// LowerBound is the Eq. (1) load-balance lower bound for MULTIPROC.
var LowerBound = core.LowerBound

// --- Online scheduling (machine-eligibility arrivals) ---

// OnlineScheduler assigns arriving tasks immediately to the least-loaded
// eligible processor.
type OnlineScheduler = online.Scheduler

// NewOnlineScheduler returns an online scheduler over nProcs processors.
func NewOnlineScheduler(nProcs int) *OnlineScheduler { return online.New(nProcs) }

// OnlineReplay feeds a SINGLEPROC instance to the online scheduler in the
// given arrival order (nil for index order).
var OnlineReplay = online.Replay

// OnlineCompetitiveRatio measures online greedy against the offline
// optimum on a unit instance.
var OnlineCompetitiveRatio = online.CompetitiveRatio

// Evaluation helpers.
var (
	Loads                   = core.Loads
	Makespan                = core.Makespan
	ValidateAssignment      = core.ValidateAssignment
	HyperLoads              = core.HyperLoads
	HyperMakespan           = core.HyperMakespan
	ValidateHyperAssignment = core.ValidateHyperAssignment
)

// BnBOptions bounds the branch-and-bound search of the BnB-SP/BnB-MP
// solvers and their -Par counterparts (SolverOptions.BnB); Run fills it
// from its options.
type BnBOptions = exact.Options

// BnBStats reports how much work a branch-and-bound search did
// (Report.Stats, or BnBOptions.Stats when calling a Solver directly).
type BnBStats = exact.SearchStats

// ErrLimit reports an exhausted branch-and-bound node budget; a Solver
// returns it alongside its incumbent, which Run reports as
// StatusHeuristic: complete and deterministic, just not proven.
var ErrLimit = exact.ErrLimit

// ErrCancelled reports a context cancelled mid-search; the accompanying
// result is still a valid schedule, just not provably optimal.
var ErrCancelled = exact.ErrCancelled

// --- Batch solving ---

// BatchOptions configures SolveProblems.
type BatchOptions = batch.Options

// BatchOutcome is the per-problem outcome of SolveProblems: the unified
// Report, or that problem's failure.
type BatchOutcome = batch.Outcome

// BatchRunner is a reusable batch solver (SolveProblems creates one per
// call).
type BatchRunner = batch.Runner

// NewBatchRunner returns a reusable batch solver.
func NewBatchRunner(opts BatchOptions) *BatchRunner { return batch.New(opts) }

// SolveProblems solves many Problems — SINGLEPROC and MULTIPROC freely
// mixed — on a worker pool spanning GOMAXPROCS cores. Each problem runs
// Run's auto policy: a heuristic race first, then — when the instance
// allows it — an exact attempt (ExactUnit or parallel branch-and-bound),
// falling back to the best schedule found so far on timeout. Failures are
// isolated per problem (BatchOutcome.Err). At a fixed worker count the
// schedules repeat from run to run. Across worker counts the makespans
// agree only while no exact stage stops at its node budget, because one
// worker per solve runs the sequential search and more run the parallel
// rounds; co-optimal schedules may differ. Cancelling ctx stops the batch
// promptly, returning partial results alongside the context's error.
func SolveProblems(ctx context.Context, problems []Problem, opts BatchOptions) ([]BatchOutcome, error) {
	return batch.New(opts).RunProblems(ctx, problems)
}

// --- Generators (Sec. V-A) ---

// Generator selects an instance structure generator.
type Generator = gen.Generator

// WeightScheme selects hyperedge weights.
type WeightScheme = gen.WeightScheme

// Generator and weight-scheme values.
const (
	HiLo      = gen.HiLo
	FewgManyg = gen.FewgManyg
	Unit      = gen.Unit
	Related   = gen.Related
	Random    = gen.Random
)

// HyperParams parameterizes GenerateHypergraph.
type HyperParams = gen.HyperParams

// GenerateBipartite creates a random SINGLEPROC instance.
var GenerateBipartite = gen.Bipartite

// GenerateHypergraph creates a random MULTIPROC instance.
var GenerateHypergraph = gen.Hypergraph

// --- Worst-case families (Sec. III, IV-B) ---

var (
	// Fig1 is the 2-task toy where basic-greedy is 2× off.
	Fig1 = adversarial.Fig1
	// Chain is the Fig. 3 family: greedy k vs optimal 1.
	Chain = adversarial.Chain
	// ChainPlus extends Chain(3) to trap double-sorted.
	ChainPlus = adversarial.ChainPlus
	// ExpectedTrap extends further to trap expected-greedy.
	ExpectedTrap = adversarial.ExpectedTrap
)

// X3C is an Exact Cover by 3-Sets instance (Theorem 1 reduction source).
type X3C = adversarial.X3C

// --- Scheduling front end ---

// Config is one execution option of a task.
type Config = sched.Config

// Task is a named task with configurations.
type Task = sched.Task

// Instance is a named MULTIPROC scheduling instance.
type Instance = sched.Instance

// Schedule is a solved instance, with the status and certificate of the
// Run that solved it.
type Schedule = sched.Schedule

// Timeline is the discrete-event realization of a schedule.
type Timeline = sched.Timeline

// Algorithm selects the scheduling algorithm for Solve.
type Algorithm = sched.Algorithm

// Scheduling algorithm values.
const (
	SGH                  = sched.SortedGreedy
	EGH                  = sched.ExpectedGreedy
	VGH                  = sched.VectorGreedy
	ExpectedVectorGreedy = sched.ExpectedVectorGreedy
	ExactSchedule        = sched.Exact
)

// NewInstance returns a scheduling instance with the given processor
// names.
func NewInstance(procNames ...string) *Instance { return sched.NewInstance(procNames...) }

// Solve schedules an instance through Run; the Algorithm enum maps
// through the solver registry.
var Solve = sched.Solve

// SolveByName schedules an instance with any registered MULTIPROC solver,
// by name or alias.
var SolveByName = sched.SolveByName

// --- Solving as a service ---

// Fingerprint returns the collision-resistant content hash (hex SHA-256)
// of an instance's canonical form. instance must be a *Graph or a
// *Hypergraph. Isomorphic instances — the same problem with
// configurations or processors listed in a different order, or a
// weighted encoding whose weights are all one — share a fingerprint; any
// structural or weight difference changes it. This is the identity the
// service's result cache is keyed by.
func Fingerprint(instance any) (string, error) {
	switch v := instance.(type) {
	case *Hypergraph:
		return encode.FingerprintHypergraph(v)
	case *Graph:
		return encode.FingerprintBipartite(v)
	default:
		return "", fmt.Errorf("semimatch: Fingerprint: unsupported instance type %T", instance)
	}
}

// Service is a long-running, concurrency-safe solving service: requests
// are canonicalized and fingerprinted, repeated (or isomorphic) requests
// are answered from a sharded LRU result cache, concurrent identical
// requests coalesce into a single solve, and a bounded admission queue
// rejects overload fast with ErrServiceOverloaded. cmd/semiserve is the
// HTTP front end over this type.
type Service = service.Service

// ServiceOptions configures NewService; the zero value uses sensible
// defaults (4096-entry cache, 64-deep queue, GOMAXPROCS workers).
type ServiceOptions = service.Options

// ServiceResult is one solved (or cache-served) request.
type ServiceResult = service.Result

// ServiceStats is a counters snapshot of a Service.
type ServiceStats = service.Stats

// NewService returns a Service with the given options.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// Service sentinel errors.
var (
	// ErrServiceOverloaded reports a request rejected by admission control
	// because the solve queue was full.
	ErrServiceOverloaded = service.ErrOverloaded
	// ErrUnknownAlgorithm reports an algorithm name the registry cannot
	// resolve for the instance's class.
	ErrUnknownAlgorithm = service.ErrUnknownAlgorithm
)

// --- Persistence ---

// WriteGraph writes a bipartite instance in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return encode.WriteBipartite(w, g) }

// ReadGraph reads a bipartite instance.
func ReadGraph(r io.Reader) (*Graph, error) { return encode.ReadBipartite(r) }

// WriteHypergraph writes a MULTIPROC instance in the text format.
func WriteHypergraph(w io.Writer, h *Hypergraph) error { return encode.WriteHypergraph(w, h) }

// ReadHypergraph reads a MULTIPROC instance.
func ReadHypergraph(r io.Reader) (*Hypergraph, error) { return encode.ReadHypergraph(r) }
