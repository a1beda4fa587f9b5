package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"semimatch/internal/encode"
)

// The JSON shape is the natural external form of an Instance: processor
// names plus tasks with their configurations. semisolve and semiserve
// accept it alongside the encode text formats (see ParseInstance).
//
//	{
//	  "processors": ["cpu0", "cpu1", "gpu"],
//	  "tasks": [
//	    {"name": "render", "configs": [
//	      {"procs": [0], "time": 8},
//	      {"procs": [0, 2], "time": 3}
//	    ]}
//	  ]
//	}
type jsonInstance struct {
	Processors []string   `json:"processors"`
	Tasks      []jsonTask `json:"tasks"`
}

type jsonTask struct {
	Name    string       `json:"name"`
	Configs []jsonConfig `json:"configs"`
}

type jsonConfig struct {
	Procs []int `json:"procs"`
	Time  int64 `json:"time"`
}

// WriteJSON writes the instance as indented JSON.
func (in *Instance) WriteJSON(w io.Writer) error {
	ji := jsonInstance{Processors: in.ProcNames}
	for _, t := range in.Tasks {
		jt := jsonTask{Name: t.Name}
		for _, c := range t.Configs {
			jt.Configs = append(jt.Configs, jsonConfig{Procs: c.Procs, Time: c.Time})
		}
		ji.Tasks = append(ji.Tasks, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ji)
}

// ReadInstanceJSON parses an instance from JSON and validates it (every
// task needs a configuration; processor indices in range; positive times).
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	var ji jsonInstance
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ji); err != nil {
		return nil, fmt.Errorf("sched: parsing instance JSON: %w", err)
	}
	if len(ji.Processors) == 0 {
		return nil, fmt.Errorf("sched: no processors")
	}
	in := NewInstance(ji.Processors...)
	for _, jt := range ji.Tasks {
		if len(jt.Configs) == 0 {
			return nil, fmt.Errorf("sched: task %q has no configuration", jt.Name)
		}
		cfgs := make([]Config, len(jt.Configs))
		for i, jc := range jt.Configs {
			if jc.Time < 1 {
				return nil, fmt.Errorf("sched: task %q config %d has non-positive time", jt.Name, i)
			}
			if len(jc.Procs) == 0 {
				return nil, fmt.Errorf("sched: task %q config %d has no processors", jt.Name, i)
			}
			for _, p := range jc.Procs {
				if p < 0 || p >= len(ji.Processors) {
					return nil, fmt.Errorf("sched: task %q config %d references processor %d (have %d)", jt.Name, i, p, len(ji.Processors))
				}
			}
			cfgs[i] = Config{Procs: jc.Procs, Time: jc.Time}
		}
		in.AddTask(jt.Name, cfgs...)
	}
	// Round-trip through the hypergraph builder to catch duplicate
	// processors within a configuration etc.
	if _, err := in.Hypergraph(); err != nil {
		return nil, err
	}
	return in, nil
}

// ParseInstance decodes an instance file or request body: the encode
// text formats ("bipartite ..." / "hypergraph ...") or the JSON instance
// schema above (detected by a leading '{'), which is converted to its
// hypergraph form. semiserve and semisolve both read their input through
// it.
func ParseInstance(body []byte) (instance any, fromJSON bool, err error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, false, errors.New("empty request body")
	}
	if trimmed[0] == '{' {
		in, err := ReadInstanceJSON(bytes.NewReader(trimmed))
		if err != nil {
			return nil, true, err
		}
		h, err := in.Hypergraph()
		if err != nil {
			return nil, true, err
		}
		return h, true, nil
	}
	instance, err = encode.Parse(body)
	return instance, false, err
}

// scheduleJSON is the external form of a solved schedule.
type scheduleJSON struct {
	Algorithm string           `json:"algorithm"`
	Makespan  int64            `json:"makespan"`
	Optimal   bool             `json:"optimal"`
	Tasks     []scheduleTask   `json:"tasks"`
	Loads     map[string]int64 `json:"loads"`
}

type scheduleTask struct {
	Name   string   `json:"name"`
	Config int      `json:"config"`
	Procs  []string `json:"procs"`
	Time   int64    `json:"time"`
}

// WriteJSON writes the solved schedule as indented JSON; algorithm is a
// label for provenance.
func (s *Schedule) WriteJSON(w io.Writer, algorithm string) error {
	out := scheduleJSON{
		Algorithm: algorithm,
		Makespan:  s.Makespan,
		Optimal:   s.Optimal(),
		Loads:     make(map[string]int64, len(s.Loads)),
	}
	for p, l := range s.Loads {
		out.Loads[s.Instance.ProcNames[p]] = l
	}
	for t, task := range s.Instance.Tasks {
		c := task.Configs[s.Choice[t]]
		st := scheduleTask{Name: task.Name, Config: s.Choice[t], Time: c.Time}
		for _, p := range c.Procs {
			st.Procs = append(st.Procs, s.Instance.ProcNames[p])
		}
		out.Tasks = append(out.Tasks, st)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
