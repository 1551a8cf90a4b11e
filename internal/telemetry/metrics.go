package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType classifies a metric family for exposition.
type MetricType string

// Metric types, matching the Prometheus text-format TYPE keywords.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use and lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets is the default latency bucket ladder, in seconds: 5µs to 10s,
// wide enough to cover a cache-hit compile (tens of µs), a deploy (ms), and
// a cold Table 2 compile (seconds) in one histogram shape.
var DefBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Exemplar pins one recent observation to the trace that produced it,
// surfaced in the Prometheus exposition so a slow bucket links straight
// to a concrete trace ID.
type Exemplar struct {
	Value   float64
	TraceID string
}

// Histogram is a fixed-bucket latency histogram. Observations are two
// atomic adds plus a short bucket scan — cheap enough for every hot path.
type Histogram struct {
	// uppers holds the bucket upper bounds, ascending; counts has one extra
	// slot for the implicit +Inf bucket. Bucket counts are stored
	// non-cumulative and summed at read time.
	uppers []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	// sum accumulates seconds as float bits via CAS: observations are
	// per-operation (not per-packet), so contention is negligible.
	sum atomic.Uint64
	// exemplars keeps the latest traced observation per bucket (last
	// writer wins; a torn pair is impossible since the whole Exemplar
	// swaps atomically).
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram(uppers []float64) *Histogram {
	if len(uppers) == 0 {
		uppers = DefBuckets
	}
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not ascending: %v", uppers))
		}
	}
	return &Histogram{
		uppers:    append([]float64(nil), uppers...),
		counts:    make([]atomic.Uint64, len(uppers)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(uppers)+1),
	}
}

// Observe records one value (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is nonempty, pins
// it as the bucket's exemplar so the exposition can point at the trace
// behind the observation.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v)
	h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
}

// Exemplars snapshots the per-bucket exemplars, aligned with the bucket
// ladder (+Inf last); slots without a traced observation are nil.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// snapshot returns cumulative bucket counts (aligned with uppers, +Inf
// last), the total count and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.count.Load(), math.Float64frombits(h.sum.Load())
}

// HistogramSummary condenses a histogram for JSON payloads and CLIs. The
// quantiles are estimated by linear interpolation within the bucket that
// crosses the target rank, the standard fixed-bucket estimate.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Summary computes the current count, sum and p50/p90/p99 estimates.
func (h *Histogram) Summary() HistogramSummary {
	cum, count, sum := h.snapshot()
	return HistogramSummary{
		Count: count,
		Sum:   sum,
		P50:   h.quantile(cum, count, 0.50),
		P90:   h.quantile(cum, count, 0.90),
		P99:   h.quantile(cum, count, 0.99),
	}
}

func (h *Histogram) quantile(cum []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i == len(h.uppers) {
			// Rank landed in the +Inf bucket: the best point estimate the
			// fixed ladder offers is the highest finite bound.
			return h.uppers[len(h.uppers)-1]
		}
		lo := 0.0
		var below uint64
		if i > 0 {
			lo = h.uppers[i-1]
			below = cum[i-1]
		}
		width := h.uppers[i] - lo
		inBucket := float64(c - below)
		if inBucket == 0 {
			return h.uppers[i]
		}
		return lo + width*(rank-float64(below))/inBucket
	}
	return h.uppers[len(h.uppers)-1]
}

// series is one labeled instance within a family: exactly one of counter,
// gauge, hist or fn is set (fn serves both counter- and gauge-typed
// scrape-time callbacks).
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	typ    MetricType
	uppers []float64 // histogram families only
	series map[string]*series
}

// Registry is a set of named metrics. Get-or-create lookups take a mutex;
// the returned handles are lock-free, so hot paths resolve once and update
// forever.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// signature renders labels as a canonical sorted key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

func validate(name string, labels []Label) {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", name, l.Key))
		}
	}
}

// lookup returns the family and series for (name, labels), creating either
// as needed. A name registered twice with different types is a programming
// error and panics. The typed slot (counter, gauge or histogram) is filled
// in while r.mu is still held: a series must be fully built before any
// concurrent lookup of the same (name, labels) can observe it, otherwise a
// second caller races its read of the slot against the creator's write.
func (r *Registry) lookup(name, help string, typ MetricType, uppers []float64, labels []Label) *series {
	validate(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, uppers: uppers, series: map[string]*series{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	sig := signature(labels)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch typ {
		case TypeCounter:
			s.counter = &Counter{}
		case TypeGauge:
			s.gauge = &Gauge{}
		case TypeHistogram:
			s.hist = newHistogram(f.uppers)
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, TypeCounter, nil, labels)
	if s.counter == nil {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a callback", name))
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, TypeGauge, nil, labels)
	if s.gauge == nil {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a callback", name))
	}
	return s.gauge
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket upper bounds (nil selects DefBuckets) on first use. Every
// series of a family shares the family's bucket ladder.
func (r *Registry) Histogram(name, help string, uppers []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, TypeHistogram, uppers, labels)
	if s.hist == nil {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a callback", name))
	}
	return s.hist
}

// GaugeFunc registers a scrape-time callback as a gauge series: fn is
// evaluated at every exposition and snapshot, so the value is always live
// and the instrumented code keeps no per-operation bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, TypeGauge, nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gauge, s.counter = nil, nil
	s.fn = fn
}

// CounterFunc registers a scrape-time callback as a counter series; fn must
// be monotone (it reads an existing counter, e.g. cache hit totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, TypeCounter, nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gauge, s.counter = nil, nil
	s.fn = fn
}

// SeriesSnapshot is one series' current value for JSON payloads.
type SeriesSnapshot struct {
	Labels    map[string]string `json:"labels,omitempty"`
	Value     float64           `json:"value"`
	Histogram *HistogramSummary `json:"histogram,omitempty"`
}

// FamilySnapshot is one family's current state for JSON payloads.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   MetricType       `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns every family's current state, sorted by name with
// series sorted by label signature — a deterministic JSON rendering.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.collect()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.typ, Help: f.help}
		for _, s := range f.series {
			ss := SeriesSnapshot{Labels: labelMap(s.labels)}
			switch {
			case s.hist != nil:
				sum := s.hist.Summary()
				ss.Histogram = &sum
				ss.Value = sum.Sum
			case s.fn != nil:
				ss.Value = s.fn()
			case s.counter != nil:
				ss.Value = float64(s.counter.Value())
			case s.gauge != nil:
				ss.Value = s.gauge.Value()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// familyView is one family as collect resolved it under r.mu: the family
// plus its series in signature order. Readers walk the view, never the
// family's series map, which lookup may be growing concurrently.
type familyView struct {
	*family
	series []*series
}

// collect snapshots the family table in deterministic order: families
// sorted by name, each family's series sorted by label signature. Callers
// iterate without holding r.mu (series handles are internally
// synchronized; fn callbacks may take their own locks).
func (r *Registry) collect() []familyView {
	r.mu.Lock()
	views := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		ss := make([]*series, len(sigs))
		for i, sig := range sigs {
			ss[i] = f.series[sig]
		}
		views = append(views, familyView{family: f, series: ss})
	}
	r.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	return views
}
