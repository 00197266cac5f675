package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-local metric registry: typed counters, gauges and
// histograms, registered by name on first use and exportable as
// Prometheus text format. All methods and instruments are safe for
// concurrent use and nil-safe (a nil *Registry hands out nil instruments;
// nil instruments are no-ops).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, help: help}
		r.counters[name] = c
	}
	return c
}

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric (rates, ratios, sizes).
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, help: help}
		r.gauges[name] = g
	}
	return g
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the gauge value (0 for the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultDurationBuckets are the histogram bucket upper bounds used for
// stage and unit durations, in seconds.
var DefaultDurationBuckets = []float64{
	0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120,
}

// Histogram is a fixed-bucket distribution metric.
type Histogram struct {
	name, help string
	mu         sync.Mutex
	bounds     []float64 // ascending upper bounds; +Inf implicit
	counts     []int64   // len(bounds)+1
	sum        float64
	count      int64
}

// Histogram returns (registering on first use) the named histogram. A nil
// or empty bucket list uses DefaultDurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if len(buckets) == 0 {
			buckets = DefaultDurationBuckets
		}
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		sort.Float64s(bounds)
		h = &Histogram{name: name, help: help, bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Snapshot returns every counter and gauge value by name (histograms are
// export-only). Used to embed the registry state in the run manifest.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges))
	for n, c := range r.counters {
		out[n] = float64(c.v.Load())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	return out
}

// formatFloat renders a metric value the Prometheus way.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, metrics sorted by name so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	kind := make(map[string]string)
	for n := range r.counters {
		names = append(names, n)
		kind[n] = "counter"
	}
	for n := range r.gauges {
		names = append(names, n)
		kind[n] = "gauge"
	}
	for n := range r.histograms {
		names = append(names, n)
		kind[n] = "histogram"
	}
	sort.Strings(names)

	for _, n := range names {
		switch kind[n] {
		case "counter":
			c := r.counters[n]
			if err := writeHeader(w, n, c.help, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", n, c.v.Load()); err != nil {
				return err
			}
		case "gauge":
			g := r.gauges[n]
			if err := writeHeader(w, n, g.help, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", n, formatFloat(g.Value())); err != nil {
				return err
			}
		case "histogram":
			h := r.histograms[n]
			if err := writeHeader(w, n, h.help, "histogram"); err != nil {
				return err
			}
			h.mu.Lock()
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum); err != nil {
					h.mu.Unlock()
					return err
				}
			}
			cum += h.counts[len(h.bounds)]
			_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				n, cum, n, formatFloat(h.sum), n, h.count)
			h.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// RedactTimings normalizes a Prometheus text export for golden
// comparison: every sample of a volatile metric (durations, persistent
// cache, solver-memo, path-cache and PDG counters — see VolatileMetric)
// has its value replaced with 0. Comments, metric names, and bucket labels
// are preserved, so a redacted export still pins the full metric structure.
// The PDG ensure/build counters it zeroes also depend on how region groups
// were arranged over substrates (a function reachable from groups on two
// shards is built twice), so it is also the metrics-text counterpart of
// Manifest.RedactSubstrate.
func RedactTimings(prom string) string {
	return redactMetrics(prom, VolatileMetric)
}

// redactMetrics zeroes the value of every sample line whose metric name
// matches, preserving line structure so redacted outputs stay diffable.
func redactMetrics(prom string, match func(string) bool) string {
	lines := strings.Split(prom, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if match(name) {
			lines[i] = line[:sp+1] + "0"
		}
	}
	return strings.Join(lines, "\n")
}
