package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// checkState asserts the session's schedule is feasible: every live
// task's placement is one of its configurations, and the load vector
// matches one recomputed from the placements.
func checkState(t *testing.T, s *Session, specs map[string]*TaskSpec) {
	t.Helper()
	st := s.Snapshot()
	loads := make([]int64, len(st.Loads))
	for _, ts := range st.Tasks {
		spec, ok := specs[ts.ID]
		if !ok {
			t.Fatalf("snapshot lists unknown task %q", ts.ID)
		}
		matched := false
		for _, c := range spec.Configs {
			if sameProcs(c.Procs, ts.Procs) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("task %q placed on %v, not one of its configurations", ts.ID, ts.Procs)
		}
		for _, p := range ts.Procs {
			loads[p] += ts.Weight
		}
	}
	var m int64
	for i := range loads {
		if loads[i] != st.Loads[i] {
			t.Fatalf("load[%d]=%d, recomputed %d", i, st.Loads[i], loads[i])
		}
		if loads[i] > m {
			m = loads[i]
		}
	}
	if m != st.Makespan {
		t.Fatalf("makespan %d, recomputed %d", st.Makespan, m)
	}
}

func sameProcs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int32]int)
	for _, p := range a {
		seen[p]++
	}
	for _, p := range b {
		seen[p]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}

// replay applies a script, checking feasibility after every event, and
// returns the reports. Reweighs may change a task's weight: specs are
// updated alongside so feasibility checks compare against current specs.
func replay(t *testing.T, s *Session, events []Event) []*SessionReport {
	t.Helper()
	specs := make(map[string]*TaskSpec)
	var reports []*SessionReport
	for i, ev := range events {
		switch ev.Op {
		case OpArrive:
			cp := *ev.Task
			cp.Configs = append([]Config(nil), ev.Task.Configs...)
			specs[ev.Task.ID] = &cp
		case OpReweigh:
			if spec, ok := specs[ev.ID]; ok {
				cfgs := make([]Config, len(spec.Configs))
				for j, c := range spec.Configs {
					cfgs[j] = Config{Procs: c.Procs, Weight: ev.Weight}
				}
				spec.Configs = cfgs
			}
		case OpDepart:
			delete(specs, ev.ID)
		}
		rep, err := s.Apply(context.Background(), ev)
		if err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Op, err)
		}
		if rep.Seq != int64(i+1) {
			t.Fatalf("event %d: seq %d", i, rep.Seq)
		}
		if rep.Makespan > rep.PatchedMakespan {
			t.Fatalf("event %d: adopted makespan %d worse than patch %d", i, rep.Makespan, rep.PatchedMakespan)
		}
		st := s.Snapshot()
		if st.Makespan != rep.Makespan {
			t.Fatalf("event %d: report makespan %d, snapshot %d", i, rep.Makespan, st.Makespan)
		}
		if rep.Tasks != len(st.Tasks) {
			t.Fatalf("event %d: report says %d tasks, snapshot %d", i, rep.Tasks, len(st.Tasks))
		}
		checkState(t, s, specs)
		reports = append(reports, rep)
	}
	return reports
}

func TestSingleProcChurnFeasible(t *testing.T) {
	s, err := New(Options{Procs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	events := GenerateScript(ScriptOptions{Seed: 2, Events: 120, Procs: 4})
	reports := replay(t, s, events)
	optimal := 0
	for _, rep := range reports {
		if rep.Status == "optimal" {
			optimal++
			if rep.LowerBound > rep.Makespan {
				t.Fatalf("seq %d: lower bound %d above makespan %d", rep.Seq, rep.LowerBound, rep.Makespan)
			}
		}
	}
	if optimal == 0 {
		t.Fatal("no event adopted a proven-optimal re-solve; the exact stage never fired")
	}
}

func TestMultiProcChurnFeasible(t *testing.T) {
	s, err := New(Options{Procs: 4, Multi: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	events := GenerateScript(ScriptOptions{Seed: 3, Events: 100, Procs: 4, Multi: true})
	replay(t, s, events)
}

// Warm-started re-solves must explore no more nodes than cold re-solves
// of the same instances, and across a whole script strictly fewer: the
// patched incumbent is strictly better than the greedy seed often enough
// to show up in the totals.
func TestWarmNodesNeverExceedCold(t *testing.T) {
	s, err := New(Options{Procs: 3, Workers: 1, CompareCold: true})
	if err != nil {
		t.Fatal(err)
	}
	events := GenerateScript(ScriptOptions{Seed: 5, Events: 80, Procs: 3, MaxWeight: 50})
	reports := replay(t, s, events)
	var warmTotal, coldTotal int64
	for _, rep := range reports {
		if rep.SolveStatus == "skipped" {
			continue
		}
		if rep.ColdNodes > 0 && rep.Nodes > rep.ColdNodes {
			t.Fatalf("seq %d: warm %d nodes > cold %d", rep.Seq, rep.Nodes, rep.ColdNodes)
		}
		warmTotal += rep.Nodes
		coldTotal += rep.ColdNodes
	}
	if warmTotal >= coldTotal {
		t.Fatalf("warm total %d nodes, cold total %d: warm starts saved nothing", warmTotal, coldTotal)
	}
}

// λ > 0 must migrate fewer tasks than λ = 0 over the same script, at the
// price of (at most slightly) worse makespans.
func TestLambdaReducesMigrations(t *testing.T) {
	events := GenerateScript(ScriptOptions{Seed: 7, Events: 150, Procs: 3, MaxWeight: 30})
	run := func(lambda float64) (int, int64) {
		s, err := New(Options{Procs: 3, Lambda: lambda, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		migs := 0
		var finalM int64
		for i, ev := range events {
			rep, err := s.Apply(context.Background(), ev)
			if err != nil {
				t.Fatalf("lambda=%v event %d: %v", lambda, i, err)
			}
			migs += rep.Migrations
			finalM = rep.Makespan
		}
		return migs, finalM
	}
	migsFree, _ := run(0)
	migsPenalized, _ := run(1000)
	if migsFree == 0 {
		t.Fatal("λ=0 run never migrated: script exercises nothing")
	}
	if migsPenalized >= migsFree {
		t.Fatalf("λ=1000 migrated %d tasks, λ=0 %d: penalty had no effect", migsPenalized, migsFree)
	}
}

func TestEventErrors(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []Event{
		{Op: "explode"},
		{Op: OpArrive},
		{Op: OpArrive, Task: &TaskSpec{ID: "t"}},
		{Op: OpArrive, Task: &TaskSpec{ID: "t", Configs: []Config{{Procs: []int32{0}, Weight: 0}}}},
		{Op: OpArrive, Task: &TaskSpec{ID: "t", Configs: []Config{{Procs: []int32{5}, Weight: 1}}}},
		{Op: OpArrive, Task: &TaskSpec{ID: "t", Configs: []Config{{Procs: []int32{0, 1}, Weight: 1}}}}, // multi-proc config in SP session
		{Op: OpReweigh, ID: "ghost", Weight: 3},
		{Op: OpDepart, ID: "ghost"},
	}
	for i, ev := range cases {
		if _, err := s.Apply(ctx, ev); err == nil {
			t.Fatalf("case %d accepted: %+v", i, ev)
		}
	}
	if _, err := s.Apply(ctx, Event{Op: OpArrive, Task: &TaskSpec{ID: "a", Configs: []Config{{Procs: []int32{0}, Weight: 2}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(ctx, Event{Op: OpArrive, Task: &TaskSpec{ID: "a", Configs: []Config{{Procs: []int32{1}, Weight: 2}}}}); err == nil {
		t.Fatal("duplicate arrival accepted")
	}
	if _, err := s.Apply(ctx, Event{Op: OpReweigh, ID: "a", Weight: -1}); err == nil {
		t.Fatal("non-positive reweigh accepted")
	}
	if _, err := s.Apply(ctx, Event{Op: OpDepart, ID: "ghost"}); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("departing a ghost: %v, want ErrUnknownTask", err)
	}
	if n := applied(s); n != 1 {
		t.Fatalf("failed events must not advance the sequence: %d", n)
	}
}

func TestOverloadSkipsResolve(t *testing.T) {
	overloaded := errors.New("no capacity")
	s, err := New(Options{Procs: 2, Acquire: func(context.Context) (func(), error) {
		return nil, overloaded
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Apply(context.Background(), Event{
		Op:   OpArrive,
		Task: &TaskSpec{ID: "a", Configs: []Config{{Procs: []int32{0}, Weight: 2}, {Procs: []int32{1}, Weight: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SolveStatus != "overloaded" || rep.Status != "patched" || rep.Adopted {
		t.Fatalf("overloaded event: %+v", rep)
	}
	if rep.Makespan != 2 {
		t.Fatalf("patched makespan %d, want 2", rep.Makespan)
	}
}

func TestAcquireReleasePairs(t *testing.T) {
	var held, calls int
	s, err := New(Options{Procs: 2, Acquire: func(context.Context) (func(), error) {
		calls++
		held++
		return func() { held-- }, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	events := GenerateScript(ScriptOptions{Seed: 9, Events: 20, Procs: 2})
	for _, ev := range events {
		if _, err := s.Apply(context.Background(), ev); err != nil {
			t.Fatal(err)
		}
	}
	if held != 0 {
		t.Fatalf("%d admission slots leaked", held)
	}
	if calls == 0 {
		t.Fatal("Acquire never called")
	}
}

func TestSubscribeStreams(t *testing.T) {
	s, err := New(Options{Procs: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := s.Subscribe(1024)
	events := GenerateScript(ScriptOptions{Seed: 11, Events: 30, Procs: 3})
	for _, ev := range events {
		if _, err := s.Apply(context.Background(), ev); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	var incumbents, reports int
	var lastSeq int64
	perEventBest := make(map[int64]int64)
	for p := range ch {
		switch p.Kind {
		case "incumbent":
			incumbents++
			if best, seen := perEventBest[p.Seq]; seen && p.Incumbent.Makespan > best {
				t.Fatalf("seq %d: incumbent stream not monotone: %d after %d", p.Seq, p.Incumbent.Makespan, best)
			}
			perEventBest[p.Seq] = p.Incumbent.Makespan
		case "report":
			reports++
			if p.Report.Seq <= lastSeq {
				t.Fatalf("report seq %d after %d", p.Report.Seq, lastSeq)
			}
			lastSeq = p.Report.Seq
		default:
			t.Fatalf("unknown push kind %q", p.Kind)
		}
	}
	if reports != len(events) {
		t.Fatalf("%d report pushes for %d events", reports, len(events))
	}
	if incumbents == 0 {
		t.Fatal("no incumbent pushes streamed")
	}
}

func TestCloseAndConcurrency(t *testing.T) {
	s, err := New(Options{Procs: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := s.Subscribe(4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				_, err := s.Apply(context.Background(), Event{
					Op:   OpArrive,
					Task: &TaskSpec{ID: id, Configs: []Config{{Procs: []int32{int32(w % 3)}, Weight: 1}}},
				})
				if err != nil {
					t.Error(err)
					return
				}
				s.Snapshot()
				if _, err := s.Apply(context.Background(), Event{Op: OpDepart, ID: id}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := applied(s); got != 80 {
		t.Fatalf("applied %d events, want 80", got)
	}
	s.Close()
	<-done // subscriber channel must close
	if _, err := s.Apply(context.Background(), Event{Op: OpDepart, ID: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v", err)
	}
	s.Close() // idempotent
	ch2, cancel2 := s.Subscribe(1)
	if _, open := <-ch2; open {
		t.Fatal("subscribe after close returned an open channel")
	}
	cancel2()
}

func TestScriptRoundTrip(t *testing.T) {
	hdr := ScriptHeader{Procs: 4, Multi: true, Lambda: 2.5, NodeBudget: 1000}
	events := GenerateScript(ScriptOptions{Seed: 13, Events: 25, Procs: 4, Multi: true})
	var buf bytes.Buffer
	if err := WriteScript(&buf, hdr, events); err != nil {
		t.Fatal(err)
	}
	hdr2, events2, err := ReadScript(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr2 != hdr {
		t.Fatalf("header %+v round-tripped to %+v", hdr, hdr2)
	}
	if len(events2) != len(events) {
		t.Fatalf("%d events round-tripped to %d", len(events), len(events2))
	}
	s, err := New(hdr2.Options())
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events2 {
		if _, err := s.Apply(context.Background(), ev); err != nil {
			t.Fatalf("replaying round-tripped event %d: %v", i, err)
		}
	}
}

// TestSingleProcArrivalPicksMinResultingLoad: a SINGLEPROC arrival goes
// to the configuration with the least resulting load, not the cheapest
// weight, and a load tie goes to the lowest processor whatever order the
// configurations arrive in. The re-solve is declined, so the snapshot
// shows the patch.
func TestSingleProcArrivalPicksMinResultingLoad(t *testing.T) {
	s, err := New(Options{Procs: 3, Acquire: func(context.Context) (func(), error) {
		return nil, errors.New("patch only")
	}})
	if err != nil {
		t.Fatal(err)
	}
	arrive := func(id string, procs []int32, weights []int64) []int32 {
		t.Helper()
		spec := &TaskSpec{ID: id}
		for i, p := range procs {
			spec.Configs = append(spec.Configs, Config{Procs: []int32{p}, Weight: weights[i]})
		}
		if _, err := s.Apply(context.Background(), Event{Op: OpArrive, Task: spec}); err != nil {
			t.Fatal(err)
		}
		st := s.Snapshot()
		return st.Tasks[len(st.Tasks)-1].Procs
	}
	arrive("pre", []int32{0}, []int64{4}) // loads 4 0 0
	// P0 would reach 4+1=5, P1 0+3=3, P2 0+7=7: P1 wins although P0
	// carries the cheapest weight.
	if got := arrive("a", []int32{0, 1, 2}, []int64{1, 3, 7}); got[0] != 1 {
		t.Fatalf("placed on %v, want P1", got)
	}
	// loads 4 3 0: P2 reaches 6 and P0 reaches 6 — the tie goes to P0
	// although P2 is listed first.
	if got := arrive("b", []int32{2, 0}, []int64{6, 2}); got[0] != 0 {
		t.Fatalf("placed on %v, want P0 (lowest processor on a tie)", got)
	}
	if st := s.Snapshot(); !slices.Equal(st.Loads, []int64{6, 3, 0}) {
		t.Fatalf("loads %v, want [6 3 0]", st.Loads)
	}
}

// applied returns how many events s has applied.
func applied(s *Session) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
