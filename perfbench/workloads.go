package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"
)

// traffic runs one workload against a started semiserve.
type traffic interface {
	// prime brings a freshly started server to the workload's steady
	// state. It runs once per set-up, so it also resets all client state.
	prime(s *server) error
	// op performs client i's next operation and returns the wall time of
	// its request; the error reports a failed request or a wrong answer.
	// Input generation and answer checks happen outside the timed request.
	op(s *server, i int) (time.Duration, error)
	// finish runs the checks that need the whole measured window.
	finish(s *server) error
}

// workload is one traffic mix: a closed loop of clients, each sending its
// next request only when the previous one has been answered.
type workload struct {
	name    string
	clients int
	// ledgerSource is the source every solve-ledger record written in the
	// measured window must carry; "" means the window must write none.
	ledgerSource string
	newTraffic   func(seed int64, clients int) traffic
}

// The request mixes and client counts are semiload's: its default mix
// (repeat=55,iso=20,miss=20,long=5) without the long kind at its default
// 16 workers over a warm set of 8, its documented cache-only mix
// (repeat=70,iso=30), and its miss kind alone. The session workload
// replays BENCH_7's sessionload settings.
var workloads = []workload{
	{"serve-mix", 16, "service", mixTraffic(kindWeights{repeat: 55, iso: 20, miss: 20})},
	{"hit", 16, "", mixTraffic(kindWeights{repeat: 70, iso: 30})},
	{"miss", 16, "service", mixTraffic(kindWeights{miss: 1})},
	{"session", 1, "session", newSessionReplay},
}

// kindWeights are the relative weights of semiload's request kinds.
type kindWeights struct{ repeat, iso, miss int }

const hotInstances = 8

// requestMix draws each client's requests from semiload's kinds:
//
//	repeat  a byte-identical repeat of a warm instance (a memory hit)
//	iso     a freshly shuffled isomorphic restatement of a warm instance,
//	        so canonicalization runs and the answer is still a memory hit
//	miss    a never-seen instance; every `clients` consecutive misses share
//	        one instance, so misses arrive as a coalescable stampede
type requestMix struct {
	seed    int64
	weights kindWeights
	clients int
	hot     []*instance
	want    []int64
	rngs    []*rand.Rand
	missSeq atomic.Int64
}

func mixTraffic(wt kindWeights) func(seed int64, clients int) traffic {
	return func(seed int64, clients int) traffic {
		m := &requestMix{seed: seed, weights: wt, clients: clients, rngs: make([]*rand.Rand, clients)}
		for k := 0; k < hotInstances; k++ {
			m.hot = append(m.hot, generate(hotFamily, newRand(seed, 1, int64(k))))
		}
		return m
	}
}

// prime solves the warm set once, as semiload's warm-up does, and
// records each answer's makespan for the hits to match.
func (m *requestMix) prime(s *server) error {
	for i := range m.rngs {
		m.rngs[i] = newRand(m.seed, 3, int64(i))
	}
	m.missSeq.Store(0)
	m.want = m.want[:0]
	for k, in := range m.hot {
		r, _, err := s.solve(in, "")
		if err == nil {
			err = in.check(r)
		}
		if err != nil {
			return fmt.Errorf("priming warm instance %d: %w", k, err)
		}
		m.want = append(m.want, r.Makespan)
	}
	return nil
}

func (m *requestMix) op(s *server, i int) (time.Duration, error) {
	rng := m.rngs[i]
	w := m.weights
	switch r := rng.Intn(w.repeat + w.iso + w.miss); {
	case r < w.repeat+w.iso:
		k := rng.Intn(len(m.hot))
		in := m.hot[k]
		if r >= w.repeat {
			in = in.shuffled(rng)
		}
		res, d, err := s.solve(in, "")
		switch {
		case err != nil:
			return d, err
		case res.CacheTier != "memory":
			return d, fmt.Errorf("warm instance %d answered from tier %q, want memory", k, res.CacheTier)
		case res.Makespan != m.want[k]:
			return d, fmt.Errorf("warm instance %d: makespan %d, primed answer was %d", k, res.Makespan, m.want[k])
		}
		return d, in.check(res)
	default:
		wave := m.missSeq.Add(1) / int64(m.clients)
		in := generate(hotFamily, newRand(m.seed, 4, wave))
		res, d, err := s.solve(in, "")
		switch {
		case err != nil:
			return d, err
		case res.Status != "optimal":
			return d, fmt.Errorf("miss answered %q, want optimal", res.Status)
		}
		return d, in.check(res)
	}
}

func (m *requestMix) finish(*server) error { return nil }

// sessionReplay replays BENCH_7's sessionload run in a loop: one
// MULTIPROC session on 4 processors with λ=1 and cold comparison re-solves,
// fed a 200-event script one request per event, then closed and replaced
// by a session with the next script. Each session has an SSE subscriber
// whose stream is checked against the event responses.
type sessionReplay struct {
	seed    int64
	clients []*replayClient
}

const (
	scriptEvents = 200
	scriptProcs  = 4
	// The semiload -session defaults for the generated scripts.
	scriptMaxWeight  = 30
	scriptMaxConfigs = 3
	scriptDepartPct  = 25
	scriptReweighPct = 10
	sessionHeader    = `{"procs":4,"multi":true,"lambda":1,"compare_cold":true}`
	// warmupEvents are replayed once per set-up, before the clock starts.
	warmupEvents = 50
)

func newSessionReplay(seed int64, clients int) traffic {
	return &sessionReplay{seed: seed, clients: make([]*replayClient, clients)}
}

func (w *sessionReplay) prime(s *server) error {
	warm := &replayClient{rng: newRand(w.seed, 5, -1)}
	for warm.events < warmupEvents {
		if _, err := warm.step(s); err != nil {
			return fmt.Errorf("warm-up session: %w", err)
		}
	}
	if err := warm.close(s); err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}
	for i := range w.clients {
		w.clients[i] = &replayClient{rng: newRand(w.seed, 6, int64(i))}
	}
	return nil
}

func (w *sessionReplay) op(s *server, i int) (time.Duration, error) {
	c := w.clients[i]
	d, err := c.step(s)
	if err == nil && c.events == scriptEvents {
		err = c.close(s)
	}
	return d, err
}

func (w *sessionReplay) finish(s *server) error {
	for _, c := range w.clients {
		if c.id != "" {
			if err := c.close(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// sessionTotals sums what the session workload's reports said over the
// window: migrations, warm and cold re-solve nodes, and the report events
// the SSE subscribers received.
func sessionTotals(d traffic) (migrations, warm, cold, streamed float64) {
	w, ok := d.(*sessionReplay)
	if !ok {
		return
	}
	for _, c := range w.clients {
		migrations += float64(c.migrations)
		warm += float64(c.warmNodes)
		cold += float64(c.coldNodes)
		streamed += float64(c.streamed)
	}
	return
}

type sessConfig struct {
	Procs  []int `json:"procs"`
	Weight int64 `json:"weight"`
}

type sessTask struct {
	ID      string       `json:"id"`
	Configs []sessConfig `json:"configs"`
}

type sessEvent struct {
	Op     string    `json:"op"`
	Task   *sessTask `json:"task,omitempty"`
	ID     string    `json:"id,omitempty"`
	Weight int64     `json:"weight,omitempty"`
}

type sessReport struct {
	Seq         int64  `json:"seq"`
	Tasks       int    `json:"tasks"`
	Makespan    int64  `json:"makespan"`
	LowerBound  int64  `json:"lower_bound"`
	SolveStatus string `json:"solve_status"`
	Migrations  int    `json:"migrations"`
	Nodes       int64  `json:"nodes"`
	ColdNodes   int64  `json:"cold_nodes"`
}

// replayClient owns one open session at a time, a copy of its live tasks,
// and the makespan each of its events reported.
type replayClient struct {
	rng    *rand.Rand
	id     string
	stream *sseStream
	live   []*sessTask
	next   int
	events int
	// reported maps each event's seq to the makespan its response gave.
	reported map[int64]int64
	// Totals over every session this client ran.
	migrations, streamed int
	warmNodes, coldNodes int64
}

// step opens a session if none is open, then generates the next event of
// the script (as semiload's GenerateScript does) and posts it.
func (c *replayClient) step(s *server) (time.Duration, error) {
	if c.id == "" {
		if err := c.open(s); err != nil {
			return 0, err
		}
	}
	var ev sessEvent
	switch roll := c.rng.Intn(100); {
	case len(c.live) > 0 && roll < scriptDepartPct:
		k := c.rng.Intn(len(c.live))
		ev = sessEvent{Op: "depart", ID: c.live[k].ID}
		c.live[k] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
	case len(c.live) > 0 && roll < scriptDepartPct+scriptReweighPct:
		t := c.live[c.rng.Intn(len(c.live))]
		wt := 1 + c.rng.Int63n(scriptMaxWeight)
		for j := range t.Configs {
			t.Configs[j].Weight = wt
		}
		ev = sessEvent{Op: "reweigh", ID: t.ID, Weight: wt}
	default:
		c.next++
		t := &sessTask{ID: fmt.Sprintf("t%d", c.next)}
		for j, n := 0, 1+c.rng.Intn(scriptMaxConfigs); j < n; j++ {
			ps := c.rng.Perm(scriptProcs)[:1+c.rng.Intn(3)]
			t.Configs = append(t.Configs, sessConfig{Procs: ps, Weight: 1 + c.rng.Int63n(scriptMaxWeight)})
		}
		c.live = append(c.live, t)
		ev = sessEvent{Op: "arrive", Task: t}
	}
	return c.apply(s, ev)
}

func (c *replayClient) open(s *server) error {
	var created struct {
		ID string `json:"id"`
	}
	if err := s.do(http.MethodPost, "/session", "application/json", sessionHeader, http.StatusCreated, &created); err != nil {
		return err
	}
	stream, err := s.subscribe(created.ID)
	if err != nil {
		return err
	}
	c.id, c.stream = created.ID, stream
	c.live, c.next, c.events = nil, 0, 0
	c.reported = make(map[int64]int64, scriptEvents)
	return nil
}

// close checks the session's final schedule, deletes it, and checks its
// event stream: every report the responses gave, with the same makespan,
// and incumbents that never worsen within one event's re-solve.
func (c *replayClient) close(s *server) error {
	err := c.checkState(s)
	if err == nil {
		err = s.do(http.MethodDelete, "/session/"+c.id, "", "", http.StatusNoContent, nil)
	}
	events, streamErr := c.stream.wait()
	c.id = ""
	if err != nil {
		return err
	}
	if streamErr != nil {
		return fmt.Errorf("session stream: %w", streamErr)
	}
	if len(events) < 2 || events[0].name != "state" || events[len(events)-1].name != "closed" {
		return fmt.Errorf("session stream of %d events does not run from state to closed", len(events))
	}
	best := map[int64]int64{}
	reports := 0
	for _, e := range events[1 : len(events)-1] {
		var p struct {
			Seq      int64 `json:"seq"`
			Makespan int64 `json:"makespan"`
		}
		if err := json.Unmarshal(e.data, &p); err != nil {
			return fmt.Errorf("session stream %s event: %w", e.name, err)
		}
		switch e.name {
		case "incumbent":
			if b, ok := best[p.Seq]; ok && p.Makespan > b {
				return fmt.Errorf("event %d: streamed incumbent worsened from %d to %d", p.Seq, b, p.Makespan)
			}
			best[p.Seq] = p.Makespan
		case "report":
			reports++
			if want, ok := c.reported[p.Seq]; !ok || want != p.Makespan {
				return fmt.Errorf("streamed report for event %d has makespan %d, the response gave %d", p.Seq, p.Makespan, want)
			}
		default:
			return fmt.Errorf("unexpected session stream event %q", e.name)
		}
	}
	if reports != len(c.reported) {
		return fmt.Errorf("session stream carried %d reports for %d events", reports, len(c.reported))
	}
	c.streamed += reports
	return nil
}

// lowerBound bounds any schedule of the live tasks, as instance.lb does.
func (c *replayClient) lowerBound() int64 {
	var maxMin, sumMin int64
	for _, t := range c.live {
		cheapest, cheapestLoad := t.Configs[0].Weight, t.Configs[0].Weight*int64(len(t.Configs[0].Procs))
		for _, cf := range t.Configs[1:] {
			cheapest = min(cheapest, cf.Weight)
			cheapestLoad = min(cheapestLoad, cf.Weight*int64(len(cf.Procs)))
		}
		maxMin = max(maxMin, cheapest)
		sumMin += cheapestLoad
	}
	return max(maxMin, (sumMin+scriptProcs-1)/scriptProcs)
}

// apply posts one event and checks its report against the client's copy.
func (c *replayClient) apply(s *server, ev sessEvent) (time.Duration, error) {
	body, err := json.Marshal(ev)
	if err != nil {
		return 0, err
	}
	var resp struct {
		Reports []sessReport `json:"reports"`
	}
	t0 := time.Now()
	err = s.do(http.MethodPost, "/session/"+c.id+"/events", "application/x-ndjson", string(body)+"\n", http.StatusOK, &resp)
	d := time.Since(t0)
	c.events++
	if err != nil {
		return d, err
	}
	if len(resp.Reports) != 1 {
		return d, fmt.Errorf("%d reports for one event", len(resp.Reports))
	}
	rep := resp.Reports[0]
	c.reported[rep.Seq] = rep.Makespan
	c.migrations += rep.Migrations
	c.warmNodes += rep.Nodes
	c.coldNodes += rep.ColdNodes
	lb := c.lowerBound()
	switch {
	case rep.SolveStatus == "error" || rep.SolveStatus == "overloaded":
		return d, fmt.Errorf("event %d (%s): re-solve %s", c.events, ev.Op, rep.SolveStatus)
	case rep.Tasks != len(c.live):
		return d, fmt.Errorf("event %d (%s): session reports %d tasks, want %d", c.events, ev.Op, rep.Tasks, len(c.live))
	case rep.Makespan < lb || rep.LowerBound > rep.Makespan:
		return d, fmt.Errorf("event %d (%s): makespan %d against bounds %d (harness) and %d (reported)",
			c.events, ev.Op, rep.Makespan, lb, rep.LowerBound)
	}
	return d, nil
}

// checkState fetches the session's schedule and verifies it in full: the
// live task set, each placement against the task's configurations, and
// the loads and makespan the placements imply.
func (c *replayClient) checkState(s *server) error {
	var st struct {
		Tasks []struct {
			ID     string `json:"id"`
			Procs  []int  `json:"procs"`
			Weight int64  `json:"weight"`
		} `json:"tasks"`
		Loads    []int64 `json:"loads"`
		Makespan int64   `json:"makespan"`
	}
	if err := s.do(http.MethodGet, "/session/"+c.id, "", "", http.StatusOK, &st); err != nil {
		return err
	}
	if len(st.Tasks) != len(c.live) {
		return fmt.Errorf("session holds %d tasks, want %d", len(st.Tasks), len(c.live))
	}
	byID := make(map[string]*sessTask, len(c.live))
	for _, t := range c.live {
		byID[t.ID] = t
	}
	loads := make([]int64, scriptProcs)
	for _, got := range st.Tasks {
		t := byID[got.ID]
		if t == nil {
			return fmt.Errorf("session holds unknown task %q", got.ID)
		}
		delete(byID, got.ID)
		ok := false
		for _, cf := range t.Configs {
			ok = ok || (cf.Weight == got.Weight && sameSet(cf.Procs, got.Procs))
		}
		if !ok {
			return fmt.Errorf("task %s placed on %v with weight %d, not one of its configurations", got.ID, got.Procs, got.Weight)
		}
		for _, p := range got.Procs {
			loads[p] += got.Weight
		}
	}
	var makespan int64
	for p, l := range loads {
		makespan = max(makespan, l)
		if p >= len(st.Loads) || st.Loads[p] != l {
			return fmt.Errorf("session loads %v, placements imply %v", st.Loads, loads)
		}
	}
	if st.Makespan != makespan {
		return fmt.Errorf("session makespan %d, placements imply %d", st.Makespan, makespan)
	}
	return nil
}

// sameSet reports whether two lists of distinct processors are equal as
// sets.
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]bool, len(a))
	for _, p := range a {
		in[p] = true
	}
	for _, p := range b {
		if !in[p] {
			return false
		}
	}
	return true
}
