package flow

import (
	"bytes"
	"context"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/core"
	"semimatch/internal/matching"
)

// paperExactUnit is the exact SINGLEPROC-UNIT algorithm exactly as Sec.
// IV-A of the paper states it: for D = 1, 2, 3, … build the replicated
// graph G_D (D copies of every processor) and run push-relabel on it; the
// first D whose maximum matching covers every task is the optimum. Copy
// v·D+i of G_D belongs to processor v. The graph must be unit with no
// isolated task.
func paperExactUnit(g *bipartite.Graph) (core.Assignment, int64) {
	for d := 1; d <= g.NLeft; d++ {
		gd := g.ReplicateRight(d)
		m := matching.PushRelabel(matching.Wrap(gd.NLeft, gd.NRight, gd.Ptr, gd.Adj))
		if matching.Cardinality(m) != g.NLeft {
			continue
		}
		a := make(core.Assignment, g.NLeft)
		for t := range a {
			a[t] = m[t] / int32(d)
		}
		return a, int64(d)
	}
	return core.Assignment{}, 0
}

// checkExactUnit holds core.ExactUnit to the paper's literal algorithm and
// to the flow-based bisection on g: the three optima agree, and every
// assignment is valid with makespan equal to its reported optimum.
func checkExactUnit(t *testing.T, g *bipartite.Graph) {
	t.Helper()
	a, d, err := core.ExactUnit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	pa, pd := paperExactUnit(g)
	fa, fd, err := ExactUnitViaFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	if d != pd || d != fd {
		t.Fatalf("n=%d p=%d: ExactUnit D=%d, paper's algorithm %d, flow %d", g.NLeft, g.NRight, d, pd, fd)
	}
	for _, r := range []struct {
		name string
		a    core.Assignment
	}{{"ExactUnit", a}, {"paper's algorithm", pa}, {"flow", core.Assignment(fa)}} {
		if err := core.ValidateAssignment(g, r.a); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if m := core.Makespan(g, r.a); m != d {
			t.Fatalf("%s: makespan %d, optimum %d", r.name, m, d)
		}
	}
}

// FuzzExactUnit runs checkExactUnit on graphs decoded from the input:
// 1–8 processors and 1–32 tasks, then one byte per task whose low p bits
// mark its eligible processors (none set reads as processor task mod p).
// Bytes past the end of data read as zero.
func FuzzExactUnit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 5, 1, 2, 4, 3, 7, 1})
	f.Add(bytes.Repeat([]byte{7, 31, 1, 3, 128, 255, 9}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		p, n := 1+next(8), 1+next(32)
		b := bipartite.NewBuilder(n, p)
		for task := 0; task < n; task++ {
			mask := next(256) & (1<<p - 1)
			if mask == 0 {
				mask = 1 << (task % p)
			}
			for v := 0; v < p; v++ {
				if mask&(1<<v) != 0 {
					b.AddEdge(task, v)
				}
			}
		}
		checkExactUnit(t, b.MustBuild())
	})
}
