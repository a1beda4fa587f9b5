package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"semimatch/internal/adversarial"
	"semimatch/internal/core"
	"semimatch/internal/online"
)

// AdvRow is one row of the worst-case (Fig. 3) scaling experiment.
type AdvRow struct {
	K          int
	Tasks      int
	Procs      int
	Basic      int64
	Sorted     int64
	Double     int64
	Expected   int64
	Optimal    int64
	OnlineComp float64 // online greedy competitive ratio
	ExactTime  time.Duration
}

// RunAdversarial regenerates the Fig. 3 story as a table: for each k, the
// chain instance's makespans under every heuristic, the optimum, and the
// online competitive ratio (which equals k — the Θ(log p) lower bound).
func RunAdversarial(maxK int) []AdvRow {
	var rows []AdvRow
	for k := 2; k <= maxK; k++ {
		g := adversarial.Chain(k)
		row := AdvRow{K: k, Tasks: g.NLeft, Procs: g.NRight}
		row.Basic = core.Makespan(g, core.BasicGreedy(g))
		row.Sorted = core.Makespan(g, core.SortedGreedy(g))
		row.Double = core.Makespan(g, core.DoubleSorted(g))
		row.Expected = core.Makespan(g, core.ExpectedGreedy(g))
		start := time.Now()
		_, opt, err := core.ExactUnit(context.Background(), g)
		row.ExactTime = time.Since(start)
		if err != nil {
			// Chain instances never fail; make the corruption visible.
			panic(fmt.Sprintf("bench: Chain(%d): %v", k, err))
		}
		row.Optimal = opt
		if ratio, err := online.CompetitiveRatio(g); err == nil {
			row.OnlineComp = ratio
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatAdversarial renders the Fig. 3 scaling table.
func FormatAdversarial(rows []AdvRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%4s %8s %8s %7s %7s %7s %9s %8s %7s %8s\n",
		"k", "tasks", "procs", "basic", "sorted", "double", "expected", "optimal", "online", "t_ex(s)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4d %8d %8d %7d %7d %7d %9d %8d %7.0f %8.3f\n",
			r.K, r.Tasks, r.Procs, r.Basic, r.Sorted, r.Double, r.Expected, r.Optimal, r.OnlineComp, r.ExactTime.Seconds())
	}
	return sb.String()
}
