// Package metrics is a zero-dependency (stdlib-only), process-local
// metrics registry with Prometheus text-format exposition: counters,
// gauges, and histograms with explicit bucket bounds, all updated on
// the hot path with lock-free atomics (probe.AtomicFloat, the CAS
// accumulator probe.Stats uses), plus callback-backed families for values that
// are snapshotted at scrape time rather than maintained eagerly.
//
// The registry is the live-telemetry substrate behind cmd/moused: probe
// shards feed it through the ExportStats bridge (see probe.go), server
// events feed it through direct instruments, and /metrics renders the
// whole registry with WriteText. Families render sorted by name and
// children sorted by label value, so exposition output is deterministic
// for a quiesced registry — tests diff it byte-for-byte.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"mouse/internal/probe"
)

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Label is one name="value" pair attached to a sample.
type Label struct {
	Name, Value string
}

// Sample is one exposition line of a metric family: the family name
// plus Suffix (e.g. "_bucket" inside a histogram family), the label
// set, and the value. Collect callbacks return these.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// family is one metric family: name, metadata, and a closure producing
// its samples at scrape time. Direct instruments close over their
// atomic state; Collect families run user callbacks.
type family struct {
	name    string
	help    string
	kind    string
	samples func() []Sample
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call New.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	prep     []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register installs a family, panicking on invalid or duplicate names —
// registration happens at process start-up, so a bad name is a
// programming error, not a runtime condition.
func (r *Registry) register(f *family) {
	if !nameRE.MatchString(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", f.name))
	}
	r.families[f.name] = f
}

// OnScrape registers fn to run at the start of every WriteText call,
// before any family renders. Bridges use it to snapshot a shared source
// once per scrape so every family derived from it sees one consistent
// view.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prep = append(r.prep, fn)
}

// Collect registers a callback-backed family: fn is invoked once per
// scrape and returns the family's samples. kind must be "counter",
// "gauge", "histogram", or "untyped"; the callback is responsible for
// emitting samples consistent with that type (histogram callbacks emit
// _bucket/_sum/_count suffixes themselves).
func (r *Registry) Collect(name, kind, help string, fn func() []Sample) {
	switch kind {
	case "counter", "gauge", "histogram", "untyped":
	default:
		panic(fmt.Sprintf("metrics: invalid family kind %q for %q", kind, name))
	}
	r.register(&family{name: name, help: help, kind: kind, samples: fn})
}

// --- direct instruments --------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct{ v probe.AtomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v, which must be non-negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decremented")
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v probe.AtomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into explicit buckets. Buckets follow
// the Prometheus le convention: an observation lands in the first
// bucket whose upper bound is >= the value, with an implicit +Inf
// bucket at the end.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    probe.AtomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// LogBuckets returns n log10-spaced bucket bounds starting at floor:
// floor, floor*10, ..., floor*10^(n-1). LogBuckets(1e-6, 9) reproduces
// the finite edges of probe's outage-duration histogram.
func LogBuckets(floor float64, n int) []float64 {
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = floor * math.Pow(10, float64(i))
	}
	return bounds
}

// ExpBuckets returns n exponentially spaced bucket bounds: start,
// start*factor, ..., start*factor^(n-1) — the general form of
// LogBuckets for latency histograms that need a factor finer than 10.
// start must be positive and factor greater than 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%g, %g, %d) invalid", start, factor, n))
	}
	bounds := make([]float64, n)
	b := start
	for i := range bounds {
		bounds[i] = b
		b *= factor
	}
	return bounds
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: "counter", samples: func() []Sample {
		return []Sample{{Value: c.Value()}}
	}})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: "gauge", samples: func() []Sample {
		return []Sample{{Value: g.Value()}}
	}})
	return g
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds, which must be sorted strictly increasing and finite.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %q bounds must be finite and strictly increasing", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.register(&family{name: name, help: help, kind: "histogram", samples: func() []Sample {
		return histogramSamples(h.bounds, func(i int) uint64 { return h.counts[i].Load() }, h.Sum())
	}})
	return h
}

// histogramSamples renders cumulative _bucket samples plus _sum and
// _count from per-bucket counts (len(bounds)+1 of them, +Inf last).
func histogramSamples(bounds []float64, count func(i int) uint64, sum float64) []Sample {
	s := make([]Sample, 0, len(bounds)+3)
	var cum uint64
	for i, b := range bounds {
		cum += count(i)
		s = append(s, Sample{Suffix: "_bucket", Labels: []Label{{"le", formatValue(b)}}, Value: float64(cum)})
	}
	cum += count(len(bounds))
	s = append(s,
		Sample{Suffix: "_bucket", Labels: []Label{{"le", "+Inf"}}, Value: float64(cum)},
		Sample{Suffix: "_sum", Value: sum},
		Sample{Suffix: "_count", Value: float64(cum)},
	)
	return s
}

// --- labeled vectors -----------------------------------------------------

// vec is the shared child table behind CounterVec and GaugeVec: a
// read-mostly map from joined label values to the child instrument.
// Lookup takes a read lock (not the instrument update itself, which
// stays lock-free); callers on genuinely hot paths should cache the
// child returned by With.
type vec[T any] struct {
	labels []string
	mu     sync.RWMutex
	kids   map[string]*vecChild[T]
}

type vecChild[T any] struct {
	values []string
	inst   T
}

func newVec[T any](name string, labels []string) *vec[T] {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: vec %q needs at least one label", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	return &vec[T]{labels: labels, kids: map[string]*vecChild[T]{}}
}

// joinKey encodes label values unambiguously (values may contain any
// byte, so a plain separator join would collide).
func joinKey(values []string) string {
	key := ""
	for _, v := range values {
		key += fmt.Sprintf("%d:%s", len(v), v)
	}
	return key
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: got %d label values, want %d", len(values), len(v.labels)))
	}
	key := joinKey(values)
	v.mu.RLock()
	kid := v.kids[key]
	v.mu.RUnlock()
	if kid != nil {
		return &kid.inst
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if kid = v.kids[key]; kid == nil {
		kid = &vecChild[T]{values: append([]string(nil), values...)}
		v.kids[key] = kid
	}
	return &kid.inst
}

// samples renders every child sorted by label-value key.
func (v *vec[T]) samples(value func(*T) float64) []Sample {
	v.mu.RLock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		kid := v.kids[k]
		labels := make([]Label, len(v.labels))
		for i, val := range kid.values {
			labels[i] = Label{v.labels[i], val}
		}
		out = append(out, Sample{Labels: labels, Value: value(&kid.inst)})
	}
	v.mu.RUnlock()
	return out
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ v *vec[Counter] }

// With returns the counter for the given label values, creating it on
// first use.
func (cv *CounterVec) With(values ...string) *Counter { return cv.v.with(values...) }

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{v: newVec[Counter](name, labels)}
	r.register(&family{name: name, help: help, kind: "counter", samples: func() []Sample {
		return cv.v.samples(func(c *Counter) float64 { return c.Value() })
	}})
	return cv
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ v *vec[Gauge] }

// With returns the gauge for the given label values, creating it on
// first use.
func (gv *GaugeVec) With(values ...string) *Gauge { return gv.v.with(values...) }

// NewGaugeVec registers and returns a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{v: newVec[Gauge](name, labels)}
	r.register(&family{name: name, help: help, kind: "gauge", samples: func() []Sample {
		return gv.v.samples(func(g *Gauge) float64 { return g.Value() })
	}})
	return gv
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := r.WriteText(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			panic(http.ErrAbortHandler)
		}
	})
}
