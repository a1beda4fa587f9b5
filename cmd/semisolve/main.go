// Command semisolve reads an instance file and schedules it through the
// unified solve API. The file is either encode text format (bipartite or
// hypergraph, auto-detected) or the sched JSON instance schema (named
// processors and tasks, detected by a leading '{'); the decoded instance
// becomes a solve.Problem, and one Run answers every encoding. Like
// semiserve, semisolve solves the instance's canonical form (each task's
// configurations sorted) and reports the schedule in the file's own
// numbering, so the two answer one file alike. By default
// the auto policy runs (heuristic race, then an exact attempt when the
// instance is small enough); -alg names any registry solver instead,
// resolved in the detected instance's class.
//
// For a JSON instance, -json prints the named schedule as JSON instead of
// the summary, and -gantt prints its validated timeline as a Gantt chart
// to stderr.
//
// Usage:
//
//	semisolve -list-algorithms
//	semisolve -list-algorithms -json   # NDJSON SolverRecord per line
//	semisolve instance.txt             # auto policy
//	semisolve -alg evg instance.txt
//	semisolve -alg evg -refine -json -gantt instance.json  # named schedule
//	semisolve -alg bnb-par -progress hard.txt   # watch incumbents tighten
//	semisolve -trace spans.ndjson instance.txt  # record the solve's span tree
//	semisolve -trace - instance.txt    # span tree to stderr, NDJSON to stdout
//	semisolve -verify instance.txt     # re-check the result's certificate
//	semisolve -fingerprint instance.txt   # canonical fingerprint, no solve
//	semisolve -session script.ndjson   # replay a dynamic-session event script
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"semimatch/internal/core"
	"semimatch/internal/encode"
	"semimatch/internal/registry"
	"semimatch/internal/sched"
	"semimatch/internal/solve"
	"semimatch/internal/telemetry"
)

func main() {
	alg := flag.String("alg", "", "algorithm name or alias (see -list-algorithms); empty runs the auto policy")
	list := flag.Bool("list-algorithms", false, "print the solver catalog and exit")
	jsonOut := flag.Bool("json", false, "with -list-algorithms, emit the catalog as NDJSON (one record per solver); with a JSON instance, print the named schedule as JSON")
	gantt := flag.Bool("gantt", false, "with a JSON instance, print the schedule's timeline as a Gantt chart to stderr")
	showLoads := flag.Bool("show-loads", false, "print the per-processor loads")
	doRefine := flag.Bool("refine", false, "post-process hypergraph schedules with local search")
	progress := flag.Bool("progress", false, "print incumbent improvements and periodic search-progress snapshots to stderr while the solve runs")
	tracePath := flag.String("trace", "", "record a solve trace and write it as NDJSON spans to this file (\"-\" = stdout, after the summary)")
	doVerify := flag.Bool("verify", false, "independently verify the result's certificate and print the trust tier")
	fingerprint := flag.Bool("fingerprint", false, "print the instance's canonical fingerprint and exit without solving")
	sessionPath := flag.String("session", "", "replay a dynamic-session event script (header line + one JSON event per line) and print per-event reports; -json emits them as NDJSON")
	flag.Parse()
	if *list {
		if *jsonOut {
			if err := registry.WriteCatalogNDJSON(os.Stdout); err != nil {
				fail(err)
			}
			return
		}
		fmt.Print(registry.FormatCatalog())
		return
	}
	if *sessionPath != "" {
		if err := runSession(*sessionPath, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: semisolve [-alg name] [-refine] [-json] [-gantt] [-progress] [-verify] [-fingerprint] [-show-loads] [-session script] [-list-algorithms] <instance-file>")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	instance, fromJSON, err := sched.ParseInstance(data)
	if err != nil {
		fail(err)
	}
	problem, err := solve.NewProblem(instance)
	if err != nil {
		fail(err)
	}
	if (*jsonOut || *gantt) && !fromJSON {
		fail(errors.New("-json and -gantt print a named schedule and need a JSON instance"))
	}
	if *fingerprint {
		fp, err := problem.Fingerprint()
		if err != nil {
			fail(err)
		}
		fmt.Println(fp)
		return
	}

	var opts []solve.Option
	if *alg != "" {
		opts = append(opts, solve.WithAlgorithm(*alg))
	}
	if *doRefine {
		opts = append(opts, solve.WithRefine())
	}
	if *progress {
		opts = append(opts, solve.WithObserver(func(inc solve.Incumbent) {
			mark := ""
			if inc.Final {
				mark = " (final)"
			}
			fmt.Fprintf(os.Stderr, "progress: makespan %d by %s after %.3fs%s\n",
				inc.Makespan, inc.Solver, inc.Elapsed.Seconds(), mark)
		}))
		// Periodic search introspection from the exact engine: node
		// throughput and the incumbent/bound gap, at the engine's default
		// snapshot interval.
		opts = append(opts, solve.WithProgress(func(p telemetry.SearchProgress) {
			gap := ""
			if p.Gap >= 0 {
				gap = fmt.Sprintf(", gap %.1f%%", p.Gap*100)
			}
			fmt.Fprintf(os.Stderr, "search: %d nodes (%.0f/s), incumbent %d, bound %d%s\n",
				p.Nodes, p.NodesPerSec, p.Incumbent, p.Bound, gap)
		}))
	}
	if *tracePath != "" {
		opts = append(opts, solve.WithTrace())
	}

	if *doVerify {
		opts = append(opts, solve.WithVerify())
	}

	rep, err := solveCanonical(context.Background(), problem, opts...)
	verifyErr := err
	if err != nil && !(rep != nil && errors.Is(err, solve.ErrVerifyFailed)) {
		// A verification failure still carries the (downgraded) report;
		// print it below and exit nonzero at the end. Anything else is
		// fatal as before.
		fail(err)
	}
	if err := validate(problem, rep.Assignment); err != nil {
		fail(err)
	}
	if *jsonOut || *gantt {
		if err := writeNamed(data, problem, rep, *doRefine, *jsonOut, *gantt); err != nil {
			fail(err)
		}
	}
	if !*jsonOut {
		fmt.Println("instance:", describe(problem))
		fmt.Printf("algorithm: %s (%.3fs)\n", rep.Solver, rep.Elapsed.Seconds())
		fmt.Printf("makespan: %d (%s), lower bound: %d, ratio: %.3f\n",
			rep.Makespan, rep.Status, rep.LowerBound, ratio(rep.Makespan, rep.LowerBound))
		if *doVerify {
			if verifyErr != nil {
				fmt.Printf("certificate: REJECTED: %v\n", verifyErr)
			} else if c := rep.Certificate; c != nil {
				fmt.Printf("certificate: %s (witness: %s, fingerprint %.12s…)\n",
					rep.Trust, c.Witness.Kind, c.Fingerprint)
			}
		}
		if *showLoads {
			for p, l := range rep.Loads {
				fmt.Printf("P%-5d %d\n", p, l)
			}
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, rep.Trace); err != nil {
			fail(err)
		}
	}
	if verifyErr != nil {
		os.Exit(1)
	}
}

// solveCanonical solves the canonical form of p, the instance the service
// solves for the same file, so both give the same answer: refinement, for
// one, depends on the order of each task's hyperedges. A hypergraph's
// assignment and certificate are mapped back to the file's hyperedge
// numbering; a bipartite assignment needs no mapping.
func solveCanonical(ctx context.Context, p solve.Problem, opts ...solve.Option) (*solve.Report, error) {
	if g := p.Graph(); g != nil {
		canon, err := encode.CanonicalBipartite(g)
		if err != nil {
			return nil, err
		}
		return solve.Run(ctx, solve.Bipartite(canon), opts...)
	}
	canon, perm, err := encode.CanonicalHypergraph(p.Hypergraph())
	if err != nil {
		return nil, err
	}
	rep, err := solve.Run(ctx, solve.Hyper(canon), opts...)
	if rep == nil {
		return nil, err
	}
	inv := make([]int32, len(perm))
	for orig, c := range perm {
		inv[c] = int32(orig)
	}
	a := make([]int32, len(rep.Assignment))
	for t, c := range rep.Assignment {
		a[t] = inv[c]
	}
	rep.Assignment = a
	if rep.Certificate != nil {
		c := *rep.Certificate
		c.Assignment = a
		rep.Certificate = &c
	}
	return rep, err
}

// writeTrace emits the solve's span tree: the human-readable listing to
// stderr, the NDJSON form to the named file (or stdout for "-").
func writeTrace(path string, tr *telemetry.Trace) error {
	if tr == nil {
		return errors.New("no trace was recorded")
	}
	fmt.Fprint(os.Stderr, tr.Format())
	if path == "-" {
		return tr.WriteNDJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "semisolve: %v\n", err)
	os.Exit(1)
}

// writeNamed renders rep as a schedule of the JSON instance in data:
// with jsonOut the named schedule goes to stdout as JSON, with gantt its
// timeline (validated against the schedule) goes to stderr.
func writeNamed(data []byte, p solve.Problem, rep *solve.Report, refined, jsonOut, gantt bool) error {
	// ParseInstance keeps only the hypergraph form; the names come from a
	// second decode of the same bytes.
	in, err := sched.ReadInstanceJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	s, err := in.ScheduleOf(p.Hypergraph(), rep)
	if err != nil {
		return err
	}
	if jsonOut {
		label := rep.Solver
		if refined {
			label += "+refine"
		}
		if err := s.WriteJSON(os.Stdout, label); err != nil {
			return err
		}
	}
	if gantt {
		tl := s.Simulate()
		if err := tl.Validate(s); err != nil {
			return err
		}
		tl.Gantt(os.Stderr, s)
	}
	return nil
}

func describe(p solve.Problem) string {
	if h := p.Hypergraph(); h != nil {
		return fmt.Sprintf("hypergraph, %d tasks, %d processors, %d hyperedges, %d pins",
			h.NTasks, h.NProcs, h.NumEdges(), h.NumPins())
	}
	g := p.Graph()
	return fmt.Sprintf("bipartite, %d tasks, %d processors, %d edges", g.NLeft, g.NRight, g.NumEdges())
}

func validate(p solve.Problem, a []int32) error {
	if h := p.Hypergraph(); h != nil {
		return core.ValidateHyperAssignment(h, core.HyperAssignment(a))
	}
	return core.ValidateAssignment(p.Graph(), core.Assignment(a))
}

func ratio(m, lb int64) float64 {
	if lb <= 0 {
		return 1
	}
	return float64(m) / float64(lb)
}
