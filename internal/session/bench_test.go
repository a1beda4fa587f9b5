package session

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkSessionEvent replays the perfbench session workload's settings
// in process: 200-event MULTIPROC scripts on 4 processors with weights up
// to 30, λ = 1, the cold comparison (one unwarmed exact search per event)
// and one solver worker.
// One op is one script, from opening the session to closing it; the
// reported ns/event, B/event and allocs/event divide the ops by their
// events. The scripts are generated before the clock starts. Events run
// under a cancellable context, as semiserve applies them under the
// request's context, so the cost of watching for cancellation is counted.
func BenchmarkSessionEvent(b *testing.B) {
	const events = 200
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scripts := make([][]Event, b.N)
	for i := range scripts {
		scripts[i] = GenerateScript(ScriptOptions{Seed: int64(i), Events: events, Procs: 4, Multi: true, MaxWeight: 30})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for _, script := range scripts {
		s, err := New(Options{Procs: 4, Multi: true, Lambda: 1, CompareCold: true, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range script {
			if _, err := s.Apply(ctx, ev); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(len(scripts) * events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}
