package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// layerOf maps a semiserve span name to the per-layer metric its self
// time counts toward. Names not listed are solver-side stages and count
// toward solve_self_ms.
var layerOf = map[string]string{
	"request":         "request_self_ms",
	"session-event":   "request_self_ms",
	"canonicalize":    "canonicalize_ms",
	"queue-wait":      "queue_wait_ms",
	"race":            "race_ms",
	"compile":         "compile_ms",
	"root-bounds":     "root_bounds_ms",
	"greedy":          "greedy_ms",
	"search":          "search_ms",
	"verify":          "verify_ms",
	"cache-admission": "cache_admission_ms",
}

// traceLayers is what readTrace extracts from semiserve's -trace output.
type traceLayers struct {
	// selfS sums span self time (wall minus direct children) by metric.
	selfS map[string]float64
	// coveredS sums, per root span, the server time its tree accounts
	// for: the root's wall, or its children's total when a root only
	// adopts an earlier solve (session events).
	coveredS float64
}

type spanLine struct {
	Name  string  `json:"name"`
	Depth int     `json:"depth"`
	Start string  `json:"start"`
	WallS float64 `json:"wall_s"`
}

// readTrace aggregates the span trees whose root started at or after
// since; earlier trees belong to the set-up.
func readTrace(path string, since time.Time) (*traceLayers, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tl := &traceLayers{selfS: make(map[string]float64)}
	type open struct {
		span      spanLine
		childWall float64
	}
	var stack []open
	include := false
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !include {
			return
		}
		layer, ok := layerOf[top.span.Name]
		if !ok {
			layer = "solve_self_ms"
		}
		tl.selfS[layer] += max(0, top.span.WallS-top.childWall)
		if top.span.Depth == 0 {
			tl.coveredS += max(top.span.WallS, top.childWall)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var sp spanLine
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("trace line: %w", err)
		}
		for len(stack) > sp.Depth {
			closeTop()
		}
		if len(stack) != sp.Depth {
			return nil, fmt.Errorf("trace span %q at depth %d has no parent", sp.Name, sp.Depth)
		}
		if sp.Depth == 0 {
			start, err := time.Parse(time.RFC3339Nano, sp.Start)
			if err != nil {
				return nil, fmt.Errorf("trace span start: %w", err)
			}
			include = !start.Before(since)
		} else {
			stack[len(stack)-1].childWall += sp.WallS
		}
		stack = append(stack, open{span: sp})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for len(stack) > 0 {
		closeTop()
	}
	return tl, nil
}
