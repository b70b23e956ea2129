// Package obsv is the dependency-free observability kernel of the
// serving stack: a tiny metrics registry — counters, gauges and
// fixed-bucket histograms, all lock-free atomics on the update path,
// exported in the Prometheus text format — plus the admission-control
// Limiter (see limiter.go).
//
// # Registry model
//
// Every series belongs to a named family with a type, help text and a
// fixed label schema. Registration is idempotent: registering a name
// that already exists with the same shape returns the existing family
// (so package-level `var m = obsv.Default.Counter(...)` declarations in
// independently-initialized packages compose), while re-registering a
// name with a different type or label set panics — that is always a
// programming error, and silently forking a series would corrupt every
// dashboard reading it.
//
// The hot layers (store, pregel, graph) register their series against
// the package-level Default registry at init time, so an exposition
// taken at boot already names every series the process will ever emit —
// the shape Prometheus rate() queries want. Series are process-wide
// aggregates: two Stores in one process increment the same
// cutfit_store_* counters.
//
// # Consistency
//
// Updates are single atomic operations; WritePrometheus snapshots each
// series once under the registry lock. Counters are monotone within and
// across scrapes, and a histogram's cumulative buckets and _count are
// derived from one read pass, so le="+Inf" always equals _count.
// The _sum is read separately and may lag its buckets by in-flight
// observations — the usual Prometheus client contract.
package obsv

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

// Default is the process-wide registry the serving layers register
// against and cutfitd's GET /metrics exposes.
var Default = NewRegistry()

// DefBuckets are the default latency histogram bounds, in seconds:
// 500µs to 10s, covering a cache hit (sub-millisecond) through a cold
// 10M-edge partition build.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// CountBuckets are the default magnitude histogram bounds for work
// counts (edges examined per superstep and similar): powers of four
// from 64 to 64M.
var CountBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22, 1 << 24, 1 << 26}

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeGaugeFunc
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge, typeGaugeFunc:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing series.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative to keep the series monotone.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a series that can go up and down (integer-valued; byte and
// entry counts, queue depths, in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is wait-free: one
// atomic bucket increment plus a CAS loop on the float sum.
type Histogram struct {
	bounds []float64      // strictly ascending upper bounds (le)
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64  // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var t int64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// family is one registered series group: a name, type, help text, label
// schema and the label-value → instance map.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	bounds  []float64      // histogram families only
	fn      func() float64 // gauge-func families only
	mu      sync.Mutex
	series  map[string]any // encoded label values → *Counter | *Gauge | *Histogram
	ordered []string       // series keys in first-use order
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry. Most callers want Default.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the family for name, creating it on first use and
// panicking if a family of the same name was registered with a
// different shape.
func (r *Registry) register(name, help string, typ metricType, labels []string, bounds []float64, fn func() float64) *family {
	if name == "" {
		panic("obsv: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obsv: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		fn:     fn,
		series: make(map[string]any, 1),
	}
	r.families[name] = f
	return f
}

// Counter registers (or finds) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil, nil).counter()
}

// Gauge registers (or finds) a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil, nil).gauge()
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (process-derived values: goroutine counts, pool sizes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGaugeFunc, nil, nil, fn)
}

// Histogram registers (or finds) a label-less histogram with the given
// strictly-ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	checkBounds(bounds)
	return r.register(name, help, typeHistogram, nil, bounds, nil).histogram()
}

// CounterVec registers (or finds) a counter family with a label schema.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil, nil)}
}

// With returns the counter for the given label values (created on first
// use). values must match the registered label schema in number.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.instance(values).(*Counter)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	checkBounds(bounds)
	return &HistogramVec{r.register(name, help, typeHistogram, labels, bounds, nil)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.instance(values).(*Histogram)
}

func (f *family) counter() *Counter     { return f.instance(nil).(*Counter) }
func (f *family) gauge() *Gauge         { return f.instance(nil).(*Gauge) }
func (f *family) histogram() *Histogram { return f.instance(nil).(*Histogram) }

// instance returns the series for one label-value tuple, creating it on
// first use.
func (f *family) instance(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsv: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	var s any
	switch f.typ {
	case typeCounter:
		s = new(Counter)
	case typeGauge:
		s = new(Gauge)
	case typeHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Int64, len(f.bounds)+1)
		s = h
	default:
		panic(fmt.Sprintf("obsv: metric %q holds no instances", f.name))
	}
	f.series[key] = s
	f.ordered = append(f.ordered, key)
	return s
}

// Names returns every registered family name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name, series in
// first-use order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.typ == typeGaugeFunc {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
		return
	}
	f.mu.Lock()
	keys := append([]string(nil), f.ordered...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	for i, k := range keys {
		var values []string
		if k != "" || len(f.labels) > 0 {
			values = strings.Split(k, "\x00")
		}
		switch s := series[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, ""), s.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, ""), s.Value())
		case *Histogram:
			// One read pass: cumulative buckets and _count derive from the
			// same snapshot, so le="+Inf" always equals _count.
			var cum int64
			for bi := range s.counts {
				cum += s.counts[bi].Load()
				le := "+Inf"
				if bi < len(s.bounds) {
					le = formatFloat(s.bounds[bi])
				}
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, le), cum)
			}
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, ""), formatFloat(s.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, ""), cum)
		}
	}
}

// labelString renders {k="v",...}, appending le when non-empty; returns
// "" for an unlabeled series with no le.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(v))
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func checkBounds(bounds []float64) {
	if len(bounds) == 0 {
		panic("obsv: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly ascending")
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
