// Package session implements dynamic scheduling sessions: a long-lived
// instance of either problem class whose task set evolves through an
// event stream — arrivals, departures, reweighs — with the schedule
// maintained across events instead of recomputed from nothing.
//
// Each event is handled in two steps. First an instant online patch keeps
// the schedule feasible: an arrival is placed greedily on the
// configuration with the least resulting peak load (the paper's online
// rule, lifted to processor sets), a departure releases its load, a
// reweigh adjusts the load in place. Both classes patch with the same
// code: a SINGLEPROC task is a MULTIPROC task whose configurations name
// one processor each. Then a bounded re-solve races the full solve pipeline
// (internal/solve) warm-started from the patched schedule — the
// branch-and-bound engines start from its makespan as the upper bound, so
// an event that barely changes the instance re-explores a fraction of the
// cold tree. The re-solved schedule replaces the patched one only when it
// wins under the migration-cost objective
//
//	score = makespan + λ · Σ weight(moved tasks)
//
// so reassigning tasks that were already running is penalized and the
// schedule stays stable; λ = 0 chases pure makespan, large λ freezes
// placements. Every event yields a SessionReport, and subscribers can
// stream the re-solve's incumbent trajectory live (the semiserve SSE
// endpoint is a thin adapter over Subscribe).
package session

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

// Event operations.
const (
	OpArrive  = "arrive"
	OpDepart  = "depart"
	OpReweigh = "reweigh"
)

// ErrClosed reports an event posted to a closed session.
var ErrClosed = errors.New("session: closed")

// ErrUnknownTask reports a departure or reweigh naming a task that is not
// live in the session.
var ErrUnknownTask = errors.New("session: unknown task")

// ErrBadEvent reports a structurally invalid event (unknown op, missing
// or malformed task spec).
var ErrBadEvent = errors.New("session: bad event")

// Config is one way a task may run: a non-empty processor set and the
// weight each of those processors incurs. SINGLEPROC sessions restrict
// configurations to exactly one processor each.
type Config struct {
	Procs  []int32 `json:"procs"`
	Weight int64   `json:"weight"`
}

// TaskSpec describes an arriving task: a session-unique id and its
// configurations.
type TaskSpec struct {
	ID      string   `json:"id"`
	Configs []Config `json:"configs"`
}

// Event is one session event, the wire format shared by the semiserve
// endpoint, the semisolve -session replay, and the service benchmark's
// session workload.
type Event struct {
	// Op is "arrive", "depart" or "reweigh".
	Op string `json:"op"`
	// Task is the arriving task (arrive only).
	Task *TaskSpec `json:"task,omitempty"`
	// ID names the affected task (depart and reweigh).
	ID string `json:"id,omitempty"`
	// Weight is the task's new weight, applied to every configuration
	// (reweigh only).
	Weight int64 `json:"weight,omitempty"`
}

// Options configures a session.
type Options struct {
	// Procs is the processor count, fixed for the session's lifetime.
	Procs int
	// Multi allows multi-processor configurations (MULTIPROC sessions).
	// Without it every configuration must name exactly one processor and
	// the session re-solves as a SINGLEPROC instance.
	Multi bool
	// Lambda is the migration-cost weight λ: a re-solved schedule is
	// adopted only when makespan + λ·Σ moved-task weight beats the
	// patched schedule's score. 0 chases pure makespan.
	Lambda float64
	// NodeBudget, ExactTaskLimit, Deadline and Workers bound each
	// event's re-solve; they map directly onto the solve.Options fields
	// of the same names (zero = those defaults).
	NodeBudget     int64
	ExactTaskLimit int
	Deadline       time.Duration
	Workers        int
	// Trace attaches a telemetry span tree to each re-solve's Report, and
	// a "cold-search" span to SessionReport.ColdTrace under CompareCold,
	// for the serving layer to emit as a "session-event" trace.
	Trace bool
	// CompareCold additionally runs, purely for measurement, the
	// re-solve's exact search once more without the warm start
	// (solve.ColdNodes), filling SessionReport.ColdNodes so warm-vs-cold
	// search effort is observable per event. It costs one unwarmed exact
	// search per event, nothing on events whose instance gets no exact
	// stage; meant for benchmarks and tests.
	CompareCold bool
	// Acquire, when non-nil, gates each re-solve through the caller's
	// admission control: it is called before the solve and its release
	// func after. An error skips the re-solve — the event still answers
	// with the patched schedule and SolveStatus "overloaded".
	Acquire func(ctx context.Context) (release func(), err error)
}

// SessionReport is the per-event outcome.
type SessionReport struct {
	// Seq numbers events from 1 in application order.
	Seq int64 `json:"seq"`
	// Op and TaskID echo the event.
	Op     string `json:"op"`
	TaskID string `json:"task,omitempty"`
	// Tasks is the live task count after the event.
	Tasks int `json:"tasks"`
	// Makespan is the adopted schedule's makespan after the event.
	Makespan int64 `json:"makespan"`
	// LowerBound is the re-solve's certified lower bound on the
	// post-event optimum (solve.Report.LowerBound), whichever schedule
	// was adopted; 0 when no re-solve ran.
	LowerBound int64 `json:"lower_bound"`
	// PatchedMakespan is the instant online patch's makespan — the answer
	// that was available before the re-solve finished.
	PatchedMakespan int64 `json:"patched_makespan"`
	// Adopted reports whether the re-solved schedule replaced the patch.
	Adopted bool `json:"adopted"`
	// Migrations counts pre-event tasks whose placement changed;
	// MigrationCost is the sum of their (new) weights. Both are 0 when
	// the patch was kept: the patch never moves a surviving task.
	Migrations    int   `json:"migrations"`
	MigrationCost int64 `json:"migration_cost"`
	// Score is the adopted schedule's migration-cost objective:
	// makespan + λ·MigrationCost.
	Score float64 `json:"score"`
	// Status is the adopted schedule's provenance: "patched", or the
	// re-solve's status ("optimal", "heuristic", "truncated").
	Status string `json:"status"`
	// Solver names the registry solver that produced the re-solve's
	// schedule (empty when no re-solve ran).
	Solver string `json:"solver,omitempty"`
	// SolveStatus is the re-solve stage's own outcome: a solve status,
	// "skipped" (empty session), "overloaded" (admission declined) or
	// "error".
	SolveStatus string `json:"solve_status"`
	// Nodes is the warm-started re-solve's branch-and-bound node count.
	// ColdNodes (CompareCold only) is the node count of the same exact
	// search run once more unwarmed; 0 when the instance gets no
	// branch-and-bound search: more than ExactTaskLimit tasks, a negative
	// ExactTaskLimit, or a unit SINGLEPROC instance, whose exact stage is
	// the polynomial ExactUnit.
	Nodes     int64 `json:"nodes"`
	ColdNodes int64 `json:"cold_nodes,omitempty"`
	// Elapsed is the event's wall time, patch and re-solve included.
	Elapsed time.Duration `json:"elapsed_ns"`

	// Report is the re-solve's full solve report (certificate, trace,
	// search stats) when one ran; not serialized.
	Report *solve.Report `json:"-"`
	// ColdTrace is the cold comparison search's leaf "cold-search" span,
	// with its node count as the "nodes" attribute (Trace and
	// CompareCold only); not serialized.
	ColdTrace *telemetry.Span `json:"-"`
	// Problem is the instance the re-solve ran on, for consumers that
	// ledger or re-verify the event (semiserve's source:"session" ledger
	// records); not serialized.
	Problem solve.Problem `json:"-"`
}

// Push is one subscriber notification: a live incumbent from an event's
// re-solve, or the event's final report.
type Push struct {
	// Kind is "incumbent" or "report".
	Kind string `json:"kind"`
	// Seq is the event the push belongs to.
	Seq       int64            `json:"seq"`
	Incumbent *solve.Incumbent `json:"incumbent,omitempty"`
	Report    *SessionReport   `json:"report,omitempty"`
}

// liveTask is one live task: its spec plus the chosen configuration.
type liveTask struct {
	id      string
	configs []Config
	cfg     int32 // index into configs
}

// Session is a dynamic scheduling session. Events are serialized: Apply
// holds the session lock for the whole patch + re-solve cycle, so
// concurrent Apply calls queue. Subscribe and Snapshot are safe from any
// goroutine.
type Session struct {
	opts Options

	mu     sync.Mutex
	closed bool
	seq    int64
	tasks  []liveTask
	byID   map[string]int
	loads  []int64 // the patched schedule's per-processor loads

	subMu   sync.Mutex
	subs    map[int]chan Push
	nextSub int
}

// New creates a session; Options.Procs must be positive.
func New(opts Options) (*Session, error) {
	if opts.Procs <= 0 {
		return nil, fmt.Errorf("session: need a positive processor count, got %d", opts.Procs)
	}
	if opts.Lambda < 0 {
		return nil, fmt.Errorf("session: negative lambda %v", opts.Lambda)
	}
	s := &Session{
		opts:  opts,
		byID:  make(map[string]int),
		subs:  make(map[int]chan Push),
		loads: make([]int64, opts.Procs),
	}
	return s, nil
}

// Apply consumes one event: instant patch, then a bounded warm-started
// re-solve whose schedule is adopted only when it wins the migration-cost
// objective. ctx bounds the re-solve; the patch always completes.
func (s *Session) Apply(ctx context.Context, ev Event) (*SessionReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	start := time.Now()

	// arrived is the index of the task this event added, the one live
	// task that was not running before it (-1 for none).
	arrived := -1
	var taskID string
	var err error
	switch ev.Op {
	case OpArrive:
		taskID, err = s.patchArrive(ev.Task)
		arrived = len(s.tasks) - 1
	case OpDepart:
		taskID, err = s.patchDepart(ev.ID)
	case OpReweigh:
		taskID, err = s.patchReweigh(ev.ID, ev.Weight)
	default:
		err = fmt.Errorf("%w: unknown op %q", ErrBadEvent, ev.Op)
	}
	if err != nil {
		return nil, err
	}

	s.seq++
	rep := &SessionReport{
		Seq:             s.seq,
		Op:              ev.Op,
		TaskID:          taskID,
		Tasks:           len(s.tasks),
		PatchedMakespan: s.makespan(),
		Status:          "patched",
		SolveStatus:     "skipped",
	}
	rep.Makespan = rep.PatchedMakespan
	if len(s.tasks) > 0 {
		s.resolve(ctx, rep, arrived)
	}
	rep.Score = float64(rep.Makespan) + s.opts.Lambda*float64(rep.MigrationCost)
	rep.Elapsed = time.Since(start)
	s.push(Push{Kind: "report", Seq: rep.Seq, Report: rep})
	return rep, nil
}

// resolve runs the event's warm-started re-solve and adopts its schedule
// when it beats the patched one under the migration-cost objective.
// Failures never lose the patched answer: they only mark SolveStatus.
// arrived is the index of the task the event added, or -1.
func (s *Session) resolve(ctx context.Context, rep *SessionReport, arrived int) {
	if s.opts.Acquire != nil {
		release, err := s.opts.Acquire(ctx)
		if err != nil {
			rep.SolveStatus = "overloaded"
			return
		}
		defer release()
	}

	prob, warm, ptr, err := s.buildProblem()
	if err != nil {
		rep.SolveStatus = "error"
		return
	}
	rep.Problem = prob
	seq := rep.Seq
	o := solve.Options{
		Trace:            s.opts.Trace,
		Deadline:         s.opts.Deadline,
		Workers:          s.opts.Workers,
		NodeBudget:       s.opts.NodeBudget,
		ExactTaskLimit:   s.opts.ExactTaskLimit,
		InitialIncumbent: warm,
		Observer: func(inc solve.Incumbent) {
			s.push(Push{Kind: "incumbent", Seq: seq, Incumbent: &inc})
		},
	}
	res, err := solve.RunOptions(ctx, prob, o)
	if res == nil {
		rep.SolveStatus = "error"
		return
	}
	_ = err // a truncated/partial solve still carries its incumbent
	rep.Report = res
	rep.LowerBound = res.LowerBound
	rep.Solver = res.Solver
	rep.SolveStatus = res.Status.String()
	rep.Nodes = res.Stats.Nodes

	if s.opts.CompareCold {
		var span *telemetry.Span
		if s.opts.Trace {
			span = telemetry.StartSpan("cold-search")
			rep.ColdTrace = span
		}
		rep.ColdNodes = solve.ColdNodes(ctx, prob, o)
		span.SetAttr("nodes", rep.ColdNodes)
		span.End()
	}

	cfgs, err := s.placementsOf(prob, res.Assignment, ptr)
	if err != nil {
		return // malformed solver output: keep the patched schedule
	}
	migs, migCost := s.migrations(cfgs, arrived)
	scoreSolved := float64(res.Makespan) + s.opts.Lambda*float64(migCost)
	scorePatched := float64(rep.PatchedMakespan) // the patch moves no one
	if scoreSolved < scorePatched {
		s.adopt(cfgs)
		rep.Makespan = res.Makespan
		rep.Migrations = migs
		rep.MigrationCost = migCost
		rep.Status = res.Status.String()
		rep.Adopted = true
	}
}

// --- instant patch ---

// validateSpec checks an arriving task's spec against the session class.
func (s *Session) validateSpec(spec *TaskSpec) error {
	if spec == nil || spec.ID == "" {
		return fmt.Errorf("%w: arrive without a task id", ErrBadEvent)
	}
	if _, dup := s.byID[spec.ID]; dup {
		return fmt.Errorf("%w: task %q already live", ErrBadEvent, spec.ID)
	}
	if len(spec.Configs) == 0 {
		return fmt.Errorf("%w: task %q has no configurations", ErrBadEvent, spec.ID)
	}
	seenProc := make(map[int32]bool)
	for i, c := range spec.Configs {
		if c.Weight <= 0 {
			return fmt.Errorf("%w: task %q config %d has non-positive weight %d", ErrBadEvent, spec.ID, i, c.Weight)
		}
		if len(c.Procs) == 0 {
			return fmt.Errorf("%w: task %q config %d has no processors", ErrBadEvent, spec.ID, i)
		}
		if !s.opts.Multi && len(c.Procs) != 1 {
			return fmt.Errorf("%w: task %q config %d spans %d processors in a SINGLEPROC session", ErrBadEvent, spec.ID, i, len(c.Procs))
		}
		inCfg := make(map[int32]bool, len(c.Procs))
		for _, p := range c.Procs {
			if p < 0 || int(p) >= s.opts.Procs {
				return fmt.Errorf("%w: task %q config %d names processor %d of %d", ErrBadEvent, spec.ID, i, p, s.opts.Procs)
			}
			if inCfg[p] {
				return fmt.Errorf("%w: task %q config %d repeats processor %d", ErrBadEvent, spec.ID, i, p)
			}
			inCfg[p] = true
		}
		if !s.opts.Multi {
			if seenProc[c.Procs[0]] {
				return fmt.Errorf("%w: task %q has two configurations on processor %d", ErrBadEvent, spec.ID, c.Procs[0])
			}
			seenProc[c.Procs[0]] = true
		}
	}
	return nil
}

// patchArrive places the arriving task greedily with chooseConfig: least
// resulting peak load over its configurations. A SINGLEPROC task's
// configurations are sorted by processor first, so load ties go to the
// lowest processor.
func (s *Session) patchArrive(spec *TaskSpec) (string, error) {
	if err := s.validateSpec(spec); err != nil {
		return "", err
	}
	configs := make([]Config, len(spec.Configs))
	for i, c := range spec.Configs {
		configs[i] = Config{Procs: append([]int32(nil), c.Procs...), Weight: c.Weight}
	}
	if !s.opts.Multi {
		slices.SortFunc(configs, func(a, b Config) int { return cmp.Compare(a.Procs[0], b.Procs[0]) })
	}
	cfg := chooseConfig(s.loads, configs)
	addLoad(s.loads, configs[cfg], 1)
	s.byID[spec.ID] = len(s.tasks)
	s.tasks = append(s.tasks, liveTask{id: spec.ID, configs: configs, cfg: cfg})
	return spec.ID, nil
}

// patchDepart releases the departing task's load and drops it.
func (s *Session) patchDepart(id string) (string, error) {
	i, ok := s.byID[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownTask, id)
	}
	lt := s.tasks[i]
	addLoad(s.loads, lt.configs[lt.cfg], -1)
	// Ordered removal keeps arrival order, so rebuilt instances stay
	// stable across events.
	s.tasks = append(s.tasks[:i], s.tasks[i+1:]...)
	delete(s.byID, id)
	for j := i; j < len(s.tasks); j++ {
		s.byID[s.tasks[j].id] = j
	}
	return id, nil
}

// patchReweigh sets the task's weight on every configuration and adjusts
// its current placement's load in place — the patch never migrates.
func (s *Session) patchReweigh(id string, w int64) (string, error) {
	if w <= 0 {
		return "", fmt.Errorf("%w: reweigh %q to non-positive weight %d", ErrBadEvent, id, w)
	}
	i, ok := s.byID[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownTask, id)
	}
	lt := &s.tasks[i]
	addLoad(s.loads, lt.configs[lt.cfg], -1)
	for j := range lt.configs {
		lt.configs[j].Weight = w
	}
	addLoad(s.loads, lt.configs[lt.cfg], 1)
	return id, nil
}

// chooseConfig picks the configuration minimizing the resulting maximum
// load over its processors (ties to the lowest index) — the online greedy
// rule lifted to processor sets.
func chooseConfig(loads []int64, configs []Config) int32 {
	best := int32(0)
	var bestPeak int64 = -1
	for i, c := range configs {
		var peak int64
		for _, p := range c.Procs {
			if after := loads[p] + c.Weight; after > peak {
				peak = after
			}
		}
		if bestPeak < 0 || peak < bestPeak {
			best, bestPeak = int32(i), peak
		}
	}
	return best
}

func addLoad(loads []int64, c Config, sign int64) {
	for _, p := range c.Procs {
		loads[p] += sign * c.Weight
	}
}

// makespan is the current patched schedule's maximum load.
func (s *Session) makespan() int64 {
	var m int64
	for _, l := range s.loads {
		if l > m {
			m = l
		}
	}
	return m
}

// --- instance building and adoption ---

// buildProblem compiles the live tasks (arrival order) into an immutable
// instance plus the warm-start assignment of the current placements.
// ptr[i] is task i's first edge id: configurations keep their per-task
// order in both encodings (a SINGLEPROC task's are sorted by processor,
// as the graph's rows are), so edge id ptr[i]+j is task i's
// configuration j.
func (s *Session) buildProblem() (solve.Problem, []int32, []int32, error) {
	n := len(s.tasks)
	warm := make([]int32, n)
	ptr := make([]int32, n)
	var next int32
	pins := 0
	for i, lt := range s.tasks {
		ptr[i] = next
		warm[i] = next + lt.cfg
		next += int32(len(lt.configs))
		for _, c := range lt.configs {
			pins += len(c.Procs)
		}
	}
	if s.opts.Multi {
		b := hypergraph.NewBuilderSize(n, s.opts.Procs, int(next), pins)
		for i, lt := range s.tasks {
			for _, c := range lt.configs {
				b.AddEdge32(int32(i), c.Procs, c.Weight)
			}
		}
		h, err := b.Build()
		if err != nil {
			return solve.Problem{}, nil, nil, err
		}
		return solve.Hyper(h), warm, ptr, nil
	}
	b := bipartite.NewBuilder(n, s.opts.Procs)
	for i, lt := range s.tasks {
		for _, c := range lt.configs {
			b.AddWeightedEdge(i, int(c.Procs[0]), c.Weight)
		}
	}
	g, err := b.Build()
	if err != nil {
		return solve.Problem{}, nil, nil, err
	}
	return solve.Bipartite(g), hypergraph.ProcsOf(g, warm), ptr, nil
}

// placementsOf maps a solved assignment of prob back to per-task
// configuration indices; a SINGLEPROC schedule goes through its edge
// encoding.
func (s *Session) placementsOf(prob solve.Problem, a []int32, ptr []int32) ([]int32, error) {
	if g := prob.Graph(); g != nil {
		if a = hypergraph.EdgesOf(g, a); a == nil {
			return nil, fmt.Errorf("session: infeasible SINGLEPROC assignment")
		}
	}
	if len(a) != len(s.tasks) {
		return nil, fmt.Errorf("session: assignment has %d entries for %d tasks", len(a), len(s.tasks))
	}
	cfgs := make([]int32, len(a))
	for i, lt := range s.tasks {
		j := a[i] - ptr[i]
		if j < 0 || int(j) >= len(lt.configs) {
			return nil, fmt.Errorf("session: task %q assigned foreign edge %d", lt.id, a[i])
		}
		cfgs[i] = j
	}
	return cfgs, nil
}

// migrations counts pre-event tasks whose placement would change under
// cfgs, and sums their (new) weights — the migration-cost term. Until
// adopt runs, every task but the arrived one (index arrived, -1 for none)
// still holds its pre-event placement: the patch moves no running task.
func (s *Session) migrations(cfgs []int32, arrived int) (int, int64) {
	count := 0
	var cost int64
	for i, lt := range s.tasks {
		if i == arrived || lt.cfg == cfgs[i] {
			continue
		}
		count++
		cost += lt.configs[cfgs[i]].Weight
	}
	return count, cost
}

// adopt installs the re-solved placements, moving the patch loads task
// by task.
func (s *Session) adopt(cfgs []int32) {
	for i := range s.tasks {
		lt := &s.tasks[i]
		if lt.cfg == cfgs[i] {
			continue
		}
		addLoad(s.loads, lt.configs[lt.cfg], -1)
		addLoad(s.loads, lt.configs[cfgs[i]], 1)
		lt.cfg = cfgs[i]
	}
}

// --- introspection and streaming ---

// TaskState is one live task's placement in a Snapshot.
type TaskState struct {
	ID     string  `json:"id"`
	Procs  []int32 `json:"procs"`
	Weight int64   `json:"weight"`
}

// State is a point-in-time view of the session's schedule.
type State struct {
	Tasks    []TaskState `json:"tasks"`
	Loads    []int64     `json:"loads"`
	Makespan int64       `json:"makespan"`
	Events   int64       `json:"events"`
}

// Snapshot returns the current schedule: every live task's chosen
// placement, the load vector, the makespan, and the events applied.
func (s *Session) Snapshot() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{Events: s.seq, Makespan: s.makespan(), Loads: append([]int64(nil), s.loads...)}
	for _, lt := range s.tasks {
		c := lt.configs[lt.cfg]
		st.Tasks = append(st.Tasks, TaskState{
			ID:     lt.id,
			Procs:  append([]int32(nil), c.Procs...),
			Weight: c.Weight,
		})
	}
	return st
}

// Subscribe registers a push stream with the given buffer. Pushes to a
// full buffer are dropped, so a slow subscriber never blocks an event.
// The returned cancel func unregisters and closes the channel.
func (s *Session) Subscribe(buf int) (<-chan Push, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Push, buf)
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subsClosed() {
		close(ch)
		return ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	return ch, func() {
		s.subMu.Lock()
		defer s.subMu.Unlock()
		if c, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(c)
		}
	}
}

// subsClosed reports closure without taking s.mu (subMu held): Close nils
// the map after draining it.
func (s *Session) subsClosed() bool { return s.subs == nil }

func (s *Session) push(p Push) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, ch := range s.subs {
		select {
		case ch <- p:
		default: // a full buffer drops the push
		}
	}
}

// Close shuts the session: subscriber channels are closed and further
// Apply calls return ErrClosed. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, ch := range s.subs {
		close(ch)
	}
	s.subs = nil
}
