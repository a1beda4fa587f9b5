package session

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
)

// ScriptHeader is the first line of a session script file (NDJSON): the
// session configuration, followed by one Event per line. semisolve
// -session replays such files offline; GenerateScript generates them in
// memory.
type ScriptHeader struct {
	Procs          int     `json:"procs"`
	Multi          bool    `json:"multi,omitempty"`
	Lambda         float64 `json:"lambda,omitempty"`
	NodeBudget     int64   `json:"node_budget,omitempty"`
	ExactTaskLimit int     `json:"exact_task_limit,omitempty"`
	CompareCold    bool    `json:"compare_cold,omitempty"`
}

// Options translates the header into session Options.
func (h ScriptHeader) Options() Options {
	return Options{
		Procs:          h.Procs,
		Multi:          h.Multi,
		Lambda:         h.Lambda,
		NodeBudget:     h.NodeBudget,
		ExactTaskLimit: h.ExactTaskLimit,
		CompareCold:    h.CompareCold,
	}
}

// ReadScript parses a session script: a ScriptHeader line, then one JSON
// Event per line (blank lines skipped).
func ReadScript(r io.Reader) (ScriptHeader, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var hdr ScriptHeader
	gotHeader := false
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if !gotHeader {
			if err := json.Unmarshal(b, &hdr); err != nil {
				return hdr, nil, fmt.Errorf("session: script line %d (header): %w", line, err)
			}
			if hdr.Procs <= 0 {
				return hdr, nil, fmt.Errorf("session: script header needs a positive procs count")
			}
			gotHeader = true
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return hdr, nil, fmt.Errorf("session: script line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, err
	}
	if !gotHeader {
		return hdr, nil, fmt.Errorf("session: empty script")
	}
	return hdr, events, nil
}

// ScriptOptions parameterizes GenerateScript.
type ScriptOptions struct {
	// Seed makes the script deterministic; equal options replay equal
	// scripts.
	Seed int64
	// Events is the script length.
	Events int
	// Procs is the session's processor count.
	Procs int
	// Multi generates multi-processor configurations.
	Multi bool
	// MaxWeight bounds task weights (default 9).
	MaxWeight int64
	// MaxConfigs bounds configurations per task (default 3, min 1).
	MaxConfigs int
	// DepartPct and ReweighPct are the percentage of events that depart
	// or reweigh a live task (when any are live); the rest arrive.
	// Defaults: 25 and 10.
	DepartPct, ReweighPct int
}

// GenerateScript produces a deterministic arrival/departure/reweigh
// script: departures and reweighs always name a live task, so the script
// replays cleanly into a fresh session.
func GenerateScript(o ScriptOptions) []Event {
	if o.MaxWeight <= 0 {
		o.MaxWeight = 9
	}
	if o.MaxConfigs <= 0 {
		o.MaxConfigs = 3
	}
	if o.DepartPct == 0 {
		o.DepartPct = 25
	}
	if o.ReweighPct == 0 {
		o.ReweighPct = 10
	}
	rng := rand.New(rand.NewSource(o.Seed))
	var events []Event
	var live []string
	next := 0
	for len(events) < o.Events {
		roll := rng.Intn(100)
		switch {
		case len(live) > 0 && roll < o.DepartPct:
			i := rng.Intn(len(live))
			events = append(events, Event{Op: OpDepart, ID: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case len(live) > 0 && roll < o.DepartPct+o.ReweighPct:
			events = append(events, Event{
				Op:     OpReweigh,
				ID:     live[rng.Intn(len(live))],
				Weight: 1 + rng.Int63n(o.MaxWeight),
			})
		default:
			next++
			id := fmt.Sprintf("t%d", next)
			events = append(events, Event{Op: OpArrive, Task: randomTask(rng, id, o)})
			live = append(live, id)
		}
	}
	return events
}

// randomTask draws a task spec valid for the session class.
func randomTask(rng *rand.Rand, id string, o ScriptOptions) *TaskSpec {
	spec := &TaskSpec{ID: id}
	w := 1 + rng.Int63n(o.MaxWeight)
	if o.Multi {
		nCfg := 1 + rng.Intn(o.MaxConfigs)
		for c := 0; c < nCfg; c++ {
			size := 1 + rng.Intn(min(3, o.Procs))
			procs := make([]int32, 0, size)
			for _, p := range rng.Perm(o.Procs)[:size] {
				procs = append(procs, int32(p))
			}
			spec.Configs = append(spec.Configs, Config{Procs: procs, Weight: 1 + rng.Int63n(o.MaxWeight)})
		}
		return spec
	}
	// SINGLEPROC: distinct processors, one per configuration; the weight
	// may differ per processor (machine-dependent speed).
	deg := 1 + rng.Intn(min(o.MaxConfigs, o.Procs))
	for _, p := range rng.Perm(o.Procs)[:deg] {
		wp := w
		if rng.Intn(2) == 0 {
			wp = 1 + rng.Int63n(o.MaxWeight)
		}
		spec.Configs = append(spec.Configs, Config{Procs: []int32{int32(p)}, Weight: wp})
	}
	return spec
}
