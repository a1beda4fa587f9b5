// Command perfbench is semimatch's end-to-end benchmark. It starts the
// semiserve binary built from the same checkout, drives one workload
// against it over HTTP for a fixed time, checks every answer, and prints
// one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (client latency
// percentiles, throughput, set-up time); with -trace 1 semiserve writes its
// request span trees and the metrics are per-layer self times and counters
// over the measured window. semiserve always appends its solve ledger,
// which is checked against the workload. Run it through run.sh, which
// builds both binaries; BENCHMARK.json at the repository root lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// setups is how many times a -trace 0 run starts and primes a server;
// setup_s is their median, and the last server is the one measured.
const setups = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from semiserve's span traces")
	bin := flag.String("semiserve", "", "semiserve binary to benchmark")
	workdir := flag.String("workdir", "", "directory for the trace and solve-ledger files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *seconds < 1 || *seconds > 120:
		fail(fmt.Errorf("-seconds %d out of range [1,120]", *seconds))
	case *bin == "" || *workdir == "":
		fail(fmt.Errorf("-semiserve and -workdir are required"))
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *bin, *workdir)
	if err != nil {
		fail(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(w *workload, seed int64, window time.Duration, traced bool, bin, workdir string) (*result, error) {
	d := w.newTraffic(seed, w.clients)
	n, tracePath := setups, ""
	ledgerPath := filepath.Join(workdir, fmt.Sprintf("ledger-%d.jsonl", os.Getpid()))
	defer os.Remove(ledgerPath)
	flags := []string{"-ledger", ledgerPath}
	if traced {
		// One set-up suffices: a traced run reports no set-up time.
		n = 1
		tracePath = filepath.Join(workdir, fmt.Sprintf("trace-%d.ndjson", os.Getpid()))
		os.Remove(tracePath)
		defer os.Remove(tracePath)
		flags = append(flags, "-trace", tracePath)
	}

	var s *server
	var setupS []float64
	var primeErr error
	for k := 0; k < n; k++ {
		if s != nil {
			s.stop()
		}
		os.Remove(ledgerPath)
		t0 := time.Now()
		var err error
		if s, err = startServer(bin, flags...); err != nil {
			return nil, err
		}
		primeErr = d.prime(s)
		setupS = append(setupS, time.Since(t0).Seconds())
		if primeErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: priming:", primeErr)
			break
		}
	}

	before, err := s.counters()
	if err != nil {
		s.stop()
		return nil, err
	}
	ledgerBefore, err := readLedger(ledgerPath)
	if err != nil {
		s.stop()
		return nil, err
	}
	mig0, warm0, cold0, streamed0 := sessionTotals(d)
	start := time.Now()
	m := measure(d, s, w.clients, window)
	finishErr := d.finish(s)
	mig1, warm1, cold1, streamed1 := sessionTotals(d)
	after, err := s.counters()
	s.stop()
	if err != nil {
		return nil, err
	}
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: final check:", finishErr)
	}
	ledger, err := readLedger(ledgerPath)
	if err != nil {
		return nil, err
	}
	ledger = ledger[min(len(ledgerBefore), len(ledger)):]
	ledgerErr := checkLedger(ledger, w.ledgerSource)
	if ledgerErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: solve ledger:", ledgerErr)
	}

	ops := float64(len(m.latS))
	res := &result{
		Correct:   primeErr == nil && finishErr == nil && ledgerErr == nil && m.failed == 0,
		Attempted: len(m.latS),
		Failed:    m.failed,
	}
	if !traced {
		lat := append([]float64(nil), m.latS...)
		sort.Float64s(lat)
		res.Metrics = map[string]metric{
			"latency_p50_ms": {percentile(lat, 0.50) * 1e3, "ms"},
			"latency_p99_ms": {percentile(lat, 0.99) * 1e3, "ms"},
			"throughput":     {ops / m.elapsed.Seconds(), "1/s"},
			"setup_s":        {median(setupS), "s"},
		}
		return res, nil
	}

	tl, err := readTrace(tracePath, start)
	if err != nil {
		return nil, err
	}
	var sumLat float64
	for _, l := range m.latS {
		sumLat += l
	}
	perOpMs := func(sec float64) metric { return metric{sec * 1e3 / ops, "ms"} }
	delta := func(name string) float64 { return after[name] - before[name] }
	events := delta("semimatch_session_events_total")
	res.Metrics = map[string]metric{
		"latency_mean_ms":       perOpMs(sumLat),
		"outside_span_ms":       perOpMs(max(0, sumLat-tl.coveredS)),
		"search_nodes":          {delta("semimatch_search_nodes_total") / ops, "count"},
		"solves":                {delta("semimatch_solves_total") / ops, "count"},
		"ledger_records":        {float64(len(ledger)) / ops, "count"},
		"cache_hit_ratio":       {ratio(delta("semimatch_cache_hits_total"), delta("semimatch_requests_total")), "ratio"},
		"coalesced_ratio":       {ratio(delta("semimatch_coalesced_total"), delta("semimatch_requests_total")), "ratio"},
		"session_adopted_ratio": {ratio(delta("semimatch_session_adopted_total"), events), "ratio"},
		"session_migrations":    {ratio(mig1-mig0, events), "count"},
		"warm_cold_node_ratio":  {ratio(warm1-warm0, cold1-cold0), "ratio"},
		"streamed_reports":      {ratio(streamed1-streamed0, events), "ratio"},
	}
	for _, layer := range []string{
		"request_self_ms", "canonicalize_ms", "queue_wait_ms", "race_ms", "solve_self_ms",
		"compile_ms", "root_bounds_ms", "greedy_ms", "search_ms", "verify_ms", "cache_admission_ms",
	} {
		res.Metrics[layer] = perOpMs(tl.selfS[layer])
	}
	return res, nil
}

type measurement struct {
	// latS holds every attempted operation's request wall time, seconds.
	latS    []float64
	failed  int
	elapsed time.Duration
}

// measure runs the workload's closed loop until window has passed. Each
// client's operations are sequential; clients run concurrently.
func measure(d traffic, s *server, clients int, window time.Duration) measurement {
	type tally struct {
		latS   []float64
		failed int
	}
	tallies := make([]tally, clients)
	start := time.Now()
	stop := start.Add(window)
	var mu sync.Mutex
	reported := 0
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &tallies[i]
			for time.Now().Before(stop) {
				lat, err := d.op(s, i)
				t.latS = append(t.latS, lat.Seconds())
				if err != nil {
					t.failed++
					mu.Lock()
					if reported < 5 {
						reported++
						fmt.Fprintf(os.Stderr, "perfbench: client %d: %v\n", i, err)
					}
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	m := measurement{elapsed: time.Since(start)}
	for _, t := range tallies {
		m.latS = append(m.latS, t.latS...)
		m.failed += t.failed
	}
	return m
}

// percentile is the nearest-rank p-quantile of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
