package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a small, dependency-free metrics registry that renders the
// Prometheus text exposition format (version 0.0.4). It supports
// function-backed counters and gauges and fixed-bucket histograms.
// Registration order is preserved in the output; metric names must be
// unique across the registry (Register panics otherwise — metric wiring
// is a startup-time, programmer-controlled act).
//
// All operations are safe for concurrent use: observation paths touch
// only atomics, and a scrape reads a consistent-enough snapshot without
// blocking observers.
type Registry struct {
	mu     sync.Mutex
	fams   []metric
	byName map[string]struct{}
}

// metric is one registered family: it knows how to render itself.
type metric interface {
	write(w io.Writer) error
	name() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name()]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name()))
	}
	r.byName[m.name()] = struct{}{}
	r.fams = append(r.fams, m)
}

// WritePrometheus renders every registered metric in the Prometheus text
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]metric(nil), r.fams...)
	r.mu.Unlock()
	for _, m := range fams {
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

// header writes the # HELP / # TYPE preamble of one family.
func header(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- counter ---

// Counter is a monotonically increasing metric whose value is read from
// fn at scrape time: the layer that counts keeps the count.
type Counter struct {
	nm, help string
	fn       func() uint64
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge to counters another layer already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&Counter{nm: name, help: help, fn: fn})
}

func (c *Counter) name() string { return c.nm }

func (c *Counter) write(w io.Writer) error {
	if err := header(w, c.nm, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.nm, c.fn())
	return err
}

// --- gauge ---

// Gauge is a metric that can go up and down, read from fn at scrape
// time.
type Gauge struct {
	nm, help string
	fn       func() float64
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&Gauge{nm: name, help: help, fn: fn})
}

func (g *Gauge) name() string { return g.nm }

func (g *Gauge) write(w io.Writer) error {
	if err := header(w, g.nm, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.nm, formatFloat(g.fn()))
	return err
}

// --- histogram ---

// Histogram counts observations into fixed cumulative buckets. Observe
// is lock-free (one atomic add per observation plus an atomic float sum),
// so it is safe on request paths.
type Histogram struct {
	nm, help string
	bounds   []float64 // ascending upper bounds, +Inf implicit
	counts   []atomic.Uint64
	sumBits  atomic.Uint64
	count    atomic.Uint64
}

// DefLatencyBuckets is the default request-latency bucket ladder, in
// seconds: half a millisecond to a minute, roughly 2–2.5× per step.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (nil means DefLatencyBuckets). The +Inf bucket is
// implicit. Panics on unsorted bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
	}
	h := &Histogram{
		nm:     name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v: its bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) name() string { return h.nm }

func (h *Histogram) write(w io.Writer) error {
	if err := header(w, h.nm, h.help, "histogram"); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nm, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.nm, h.count.Load())
	return err
}
