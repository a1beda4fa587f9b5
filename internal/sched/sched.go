// Package sched is the scheduling-domain view of the graph problems: named
// tasks with execution-time configurations over named processors, the
// MULTIPROC model of Sec. II. It converts instances to the hypergraph
// representation, solves them with a named registry solver through
// solve.RunOptions (the one solve path, which issues the certificate that
// decides optimality), and turns the chosen semi-matching back into an
// executable schedule with a discrete-event timeline and a textual Gantt
// chart.
//
// The timeline also serves as an end-to-end validator: task parts are
// placed on concrete time slots, and the simulated span must equal the
// combinatorial makespan max_u l(u) — the paper's objective — because task
// parts are independent and may execute at different times (concurrent
// job-shop semantics).
package sched

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"semimatch/internal/cert"
	"semimatch/internal/core"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
	"semimatch/internal/registry"
	"semimatch/internal/solve"
)

// Config is one execution option of a task: run on all of Procs, taking
// Time units on each of them.
type Config struct {
	Procs []int // processor indices
	Time  int64 // w_h: time taken on each processor in the set
}

// Task is a named task with one or more configurations.
type Task struct {
	Name    string
	Configs []Config
}

// Instance is a MULTIPROC scheduling instance.
type Instance struct {
	ProcNames []string
	Tasks     []Task
}

// NewInstance returns an instance with the given processor names.
func NewInstance(procNames ...string) *Instance {
	return &Instance{ProcNames: procNames}
}

// AddTask appends a task; returns its index.
func (in *Instance) AddTask(name string, configs ...Config) int {
	in.Tasks = append(in.Tasks, Task{Name: name, Configs: configs})
	return len(in.Tasks) - 1
}

// Hypergraph converts the instance to its hypergraph form. Configuration
// j of task t becomes hyperedge TaskEdges(t)[j].
func (in *Instance) Hypergraph() (*hypergraph.Hypergraph, error) {
	b := hypergraph.NewBuilder(len(in.Tasks), len(in.ProcNames))
	for t, task := range in.Tasks {
		if len(task.Configs) == 0 {
			return nil, fmt.Errorf("sched: task %q has no configuration", task.Name)
		}
		for _, c := range task.Configs {
			if c.Time < 1 {
				return nil, fmt.Errorf("sched: task %q has non-positive time %d", task.Name, c.Time)
			}
			b.AddEdge(t, c.Procs, c.Time)
		}
	}
	return b.Build()
}

// Algorithm selects the scheduling algorithm.
type Algorithm int

const (
	// SortedGreedy is SGH (Algorithm 4).
	SortedGreedy Algorithm = iota
	// ExpectedGreedy is EGH (Algorithm 5).
	ExpectedGreedy
	// VectorGreedy is VGH (Sec. IV-D3).
	VectorGreedy
	// ExpectedVectorGreedy is EVG (Sec. IV-D4) — the paper's best
	// performer on weighted instances.
	ExpectedVectorGreedy
	// Exact runs the branch-and-bound solver; only viable for small
	// instances. Its schedule is proven optimal; a search that stops at
	// its node budget without a certificate proving its incumbent
	// optimal is an error wrapping exact.ErrLimit.
	Exact
)

// String returns the algorithm's conventional abbreviation.
func (a Algorithm) String() string {
	switch a {
	case SortedGreedy:
		return "SGH"
	case ExpectedGreedy:
		return "EGH"
	case VectorGreedy:
		return "VGH"
	case ExpectedVectorGreedy:
		return "EVG"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Schedule is a solved instance: each task's chosen configuration, the
// derived loads, and the status and certificate of the solve.Report it
// maps.
type Schedule struct {
	Instance    *Instance
	Choice      []int // Choice[t] = index into Tasks[t].Configs
	Loads       []int64
	Makespan    int64
	Status      solve.Status      // derived from Certificate
	Certificate *cert.Certificate // cert.Verify checks it against in.Hypergraph()
}

// Optimal reports a schedule its certificate proves optimal.
func (s *Schedule) Optimal() bool { return s.Status == solve.StatusOptimal }

// Solve schedules the instance with the chosen algorithm. The enum maps
// through the solver registry via its String() name, so the set of valid
// values tracks the catalog.
func Solve(in *Instance, alg Algorithm) (*Schedule, error) {
	return SolveByName(in, alg.String())
}

// SolveByName schedules the instance with any registered MULTIPROC solver
// — canonical name or alias — through solve.RunOptions, so the schedule
// carries the Report's status and certificate. Unknown names yield the
// registry's suggested-names error.
func SolveByName(in *Instance, name string) (*Schedule, error) {
	return solveOptions(in, solve.Options{Algorithm: name})
}

// solveOptions is SolveByName with resolved options. An exact solver's
// schedule that its certificate does not prove optimal (the search
// stopped at its node budget) is an error.
func solveOptions(in *Instance, o solve.Options) (*Schedule, error) {
	sol, err := registry.LookupClass(registry.MultiProc, o.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	h, err := in.Hypergraph()
	if err != nil {
		return nil, err
	}
	rep, err := solve.RunOptions(context.Background(), solve.Hyper(h), o)
	if err != nil {
		return nil, err
	}
	if sol.Kind == registry.Exact && !rep.Optimal() {
		return nil, fmt.Errorf("sched: %s: %w", sol.Name, exact.ErrLimit)
	}
	return in.ScheduleOf(h, rep)
}

// ScheduleOf maps rep, a Run on h (the instance's Hypergraph()), back to
// the named form: Choice[t] is the index of rep.Assignment[t] among task
// t's configurations, and the loads, makespan, status and certificate
// are the Report's. The assignment is validated first.
func (in *Instance) ScheduleOf(h *hypergraph.Hypergraph, rep *solve.Report) (*Schedule, error) {
	if err := core.ValidateHyperAssignment(h, rep.Assignment); err != nil {
		return nil, fmt.Errorf("sched: internal error: %w", err)
	}
	s := &Schedule{Instance: in, Choice: make([]int, len(in.Tasks)), Loads: rep.Loads,
		Makespan: rep.Makespan, Status: rep.Status, Certificate: rep.Certificate}
	for t, e := range rep.Assignment {
		// Validation put e among task t's hyperedges.
		s.Choice[t] = slices.Index(h.TaskEdges(t), e)
	}
	return s, nil
}

// Slot is one scheduled task part on a processor's timeline.
type Slot struct {
	Task       int
	Start, End int64
}

// Timeline is the per-processor discrete-event realization of a schedule.
type Timeline struct {
	Slots [][]Slot // by processor
	Span  int64    // completion time of the last part
}

// Simulate lays the chosen configuration parts onto concrete time slots:
// each processor executes its parts back to back (parts are independent,
// so any order is feasible; we use task order). The resulting span equals
// the makespan.
func (s *Schedule) Simulate() *Timeline {
	tl := &Timeline{Slots: make([][]Slot, len(s.Instance.ProcNames))}
	front := make([]int64, len(s.Instance.ProcNames))
	for t, task := range s.Instance.Tasks {
		c := task.Configs[s.Choice[t]]
		for _, p := range c.Procs {
			slot := Slot{Task: t, Start: front[p], End: front[p] + c.Time}
			front[p] = slot.End
			tl.Slots[p] = append(tl.Slots[p], slot)
			if slot.End > tl.Span {
				tl.Span = slot.End
			}
		}
	}
	return tl
}

// Validate checks the timeline against the schedule: slots on a processor
// must not overlap, every part of every chosen configuration appears
// exactly once, and the span equals the combinatorial makespan.
func (tl *Timeline) Validate(s *Schedule) error {
	want := map[[2]int]int{} // (task, proc) → count
	for t, task := range s.Instance.Tasks {
		c := task.Configs[s.Choice[t]]
		for _, p := range c.Procs {
			want[[2]int{t, p}]++
		}
	}
	for p, slots := range tl.Slots {
		for i, sl := range slots {
			if sl.End <= sl.Start {
				return fmt.Errorf("sched: empty slot for task %d on processor %d", sl.Task, p)
			}
			if i > 0 && sl.Start < slots[i-1].End {
				return fmt.Errorf("sched: overlap on processor %d at slot %d", p, i)
			}
			c := s.Instance.Tasks[sl.Task].Configs[s.Choice[sl.Task]]
			if sl.End-sl.Start != c.Time {
				return fmt.Errorf("sched: slot duration %d != configured time %d", sl.End-sl.Start, c.Time)
			}
			key := [2]int{sl.Task, p}
			want[key]--
			if want[key] == 0 {
				delete(want, key)
			}
		}
	}
	if len(want) != 0 {
		return fmt.Errorf("sched: %d task parts missing from the timeline", len(want))
	}
	if tl.Span != s.Makespan {
		return fmt.Errorf("sched: simulated span %d != makespan %d", tl.Span, s.Makespan)
	}
	return nil
}

// Gantt writes a textual Gantt chart of the timeline, one row per
// processor. Each character column is one time unit (scaled down for spans
// over 120 units).
func (tl *Timeline) Gantt(w io.Writer, s *Schedule) {
	scale := int64(1)
	for tl.Span/scale > 120 {
		scale *= 2
	}
	fmt.Fprintf(w, "makespan %d (1 col = %d time units)\n", tl.Span, scale)
	for p, slots := range tl.Slots {
		name := s.Instance.ProcNames[p]
		var sb strings.Builder
		pos := int64(0)
		for _, sl := range slots {
			for pos < sl.Start/scale {
				sb.WriteByte('.')
				pos++
			}
			label := taskGlyph(sl.Task)
			for pos < sl.End/scale || pos == sl.Start/scale {
				sb.WriteByte(label)
				pos++
			}
		}
		for pos < tl.Span/scale {
			sb.WriteByte('.')
			pos++
		}
		fmt.Fprintf(w, "%-10s |%s|\n", name, sb.String())
	}
}

// taskGlyph cycles task indices through visually distinct characters.
func taskGlyph(t int) byte {
	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	return glyphs[t%len(glyphs)]
}

// LoadReport returns the processors sorted by decreasing load with names —
// the "who is the bottleneck" summary.
func (s *Schedule) LoadReport() []string {
	type pl struct {
		p int
		l int64
	}
	ps := make([]pl, len(s.Loads))
	for p, l := range s.Loads {
		ps[p] = pl{p, l}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].l != ps[j].l {
			return ps[i].l > ps[j].l
		}
		return ps[i].p < ps[j].p
	})
	out := make([]string, len(ps))
	for i, x := range ps {
		out[i] = fmt.Sprintf("%s: %d", s.Instance.ProcNames[x.p], x.l)
	}
	return out
}
