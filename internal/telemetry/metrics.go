package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file extends the package beyond experiment recording: a small
// Prometheus-style metrics registry (counters, gauges, histograms,
// labeled counters) for the long-running daemons. The Recorder keeps
// full time series for the paper's figures; the Registry keeps cheap
// monotonic aggregates for scrapers. All metric operations are atomic
// and allocation-free, so the controller hot path can update them
// every tick.

// Registry holds named metrics and renders them in text exposition
// format, in registration order. A metric family (one name) may be
// registered several times with different constant label sets — the
// per-socket controllers rely on this — and exposition groups all
// instances of a family under a single HELP/TYPE header.
type Registry struct {
	mu      sync.Mutex
	order   []exposable
	byName  map[string]exposable
	buckets map[string][]float64 // per-family histogram bucket overrides
}

// exposable is one registered metric instance.
type exposable interface {
	// family is the metric name without labels.
	family() string
	// header returns the family's HELP text and TYPE keyword.
	header() (help, typ string)
	// exposeSamples appends the instance's sample lines.
	exposeSamples(b *bytes.Buffer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]exposable)}
}

// register installs a metric, panicking on duplicate name+const-label
// keys — metric registration happens once at wiring time, so a
// collision is a programming error worth failing loudly on.
func (r *Registry) register(key string, m exposable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[key]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", key))
	}
	r.byName[key] = m
	r.order = append(r.order, m)
}

// OverrideBuckets installs replacement histogram bucket bounds for the
// named family: every Histogram subsequently registered under that name
// uses bounds regardless of the bounds argument at the call site. It
// lets the wiring layer retune a library-registered histogram (e.g. the
// slow cluster-RPC or cross-socket paths) without threading bucket
// choices through every constructor. Call it before the histogram is
// registered; bounds must be ascending and non-empty.
func (r *Registry) OverrideBuckets(name string, bounds []float64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: empty bucket override for %q", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: bucket override for %q not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buckets == nil {
		r.buckets = make(map[string][]float64)
	}
	r.buckets[sanitizeMetric(name)] = append([]float64(nil), bounds...)
}

// bucketOverride returns the installed override for a family, if any.
func (r *Registry) bucketOverride(name string) ([]float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.buckets[name]
	return b, ok
}

// WritePrometheus renders every registered metric in registration
// order, grouping same-family instances (per-socket label variants)
// under one header. A family with no samples writes no header. The
// registry's lock is released before any samples are rendered, so a
// Func collector may take the lock that guards its data.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]exposable(nil), r.order...)
	r.mu.Unlock()
	done := make(map[string]bool, len(metrics))
	var out bytes.Buffer
	for _, m := range metrics {
		fam := m.family()
		if done[fam] {
			continue
		}
		done[fam] = true
		start := out.Len()
		help, typ := m.header()
		exposeHeader(&out, fam, help, typ)
		header := out.Len()
		for _, inst := range metrics {
			if inst.family() == fam {
				inst.exposeSamples(&out)
			}
		}
		if out.Len() == header {
			out.Truncate(start)
		}
	}
	_, err := out.WriteTo(w)
	return err
}

// constLabelSet renders alternating name,value pairs as
// `k1="v1",k2="v2"` (no braces); empty input renders "".
func constLabelSet(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd constant label list %q", kv))
	}
	var sb strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", kv[i], escapeLabel(kv[i+1]))
	}
	return sb.String()
}

// braced wraps a rendered label set in {}; "" stays "".
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	name, help string
	labels     string // rendered const labels, without braces
	v          atomic.Uint64
}

// Counter registers a counter. Optional constLabels are alternating
// name,value pairs rendered on every sample (per-socket controllers
// pass socket="N") — instances of the same family must have distinct
// constant labels.
func (r *Registry) Counter(name, help string, constLabels ...string) *Counter {
	c := &Counter{name: sanitizeMetric(name), help: help, labels: constLabelSet(constLabels)}
	r.register(c.name+braced(c.labels), c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) family() string             { return c.name }
func (c *Counter) header() (help, typ string) { return c.help, "counter" }
func (c *Counter) exposeSamples(b *bytes.Buffer) {
	fmt.Fprintf(b, "%s%s %d\n", c.name, braced(c.labels), c.Value())
}

// Gauge is a settable float64.
type Gauge struct {
	name, help string
	labels     string // rendered const labels, without braces
	bits       atomic.Uint64
}

// Gauge registers a gauge. Optional constLabels as for Counter.
func (r *Registry) Gauge(name, help string, constLabels ...string) *Gauge {
	g := &Gauge{name: sanitizeMetric(name), help: help, labels: constLabelSet(constLabels)}
	r.register(g.name+braced(g.labels), g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) family() string             { return g.name }
func (g *Gauge) header() (help, typ string) { return g.help, "gauge" }
func (g *Gauge) exposeSamples(b *bytes.Buffer) {
	fmt.Fprintf(b, "%s%s %g\n", g.name, braced(g.labels), g.Value())
}

// DefLatencyBuckets spans 50µs to 10s — wide enough for a simulated
// tick (microseconds), a hardware tick (milliseconds), and a cluster
// RPC over a congested network (seconds).
var DefLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// RPCLatencyBuckets suits network round trips with retries: nothing
// below a millisecond is interesting, and a congested or backing-off
// path can take tens of seconds.
var RPCLatencyBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30,
}

// Histogram counts observations into cumulative buckets, Prometheus
// style. Observe is lock-free: each bucket and the sum are atomics.
type Histogram struct {
	name, help string
	labels     string // rendered const labels, without braces
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64   // float64 bits, CAS-accumulated
}

// Histogram registers a histogram with the given ascending bucket
// upper bounds (nil selects DefLatencyBuckets). A bucket override
// installed via OverrideBuckets for this name wins over bounds.
// Optional constLabels as for Counter.
func (r *Registry) Histogram(name, help string, bounds []float64, constLabels ...string) *Histogram {
	clean := sanitizeMetric(name)
	if ov, ok := r.bucketOverride(clean); ok {
		bounds = ov
	} else if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{
		name:   clean,
		help:   help,
		labels: constLabelSet(constLabels),
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(h.name+braced(h.labels), h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) family() string             { return h.name }
func (h *Histogram) header() (help, typ string) { return h.help, "histogram" }
func (h *Histogram) exposeSamples(b *bytes.Buffer) {
	// Bucket samples merge const labels with le: {socket="1",le="0.5"}.
	lePrefix := "{"
	if h.labels != "" {
		lePrefix = "{" + h.labels + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", h.name, lePrefix, fmt.Sprintf("%g", bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", h.name, lePrefix, cum)
	cl := braced(h.labels)
	fmt.Fprintf(b, "%s_sum%s %g\n%s_count%s %d\n", h.name, cl, h.Sum(), h.name, cl, cum)
}

// LabeledCounter is a counter family keyed by label values ("from",
// "to" for transition counts). Children are created by With, which the
// caller resolves once at wiring time so the hot path touches only the
// child's atomic.
type LabeledCounter struct {
	name, help string
	constLbl   string // rendered const labels, without braces
	labels     []string
	mu         sync.Mutex
	order      []*labeledChild
	children   map[string]*labeledChild
}

type labeledChild struct {
	rendered string // `{k1="v1",k2="v2"}`
	c        Counter
}

// LabeledCounter registers a counter family with the given label
// names.
func (r *Registry) LabeledCounter(name, help string, labels ...string) *LabeledCounter {
	return r.LabeledCounterConst(name, help, nil, labels...)
}

// LabeledCounterConst is LabeledCounter with an additional set of
// constant labels (alternating name,value pairs) prefixed onto every
// child's label set — per-socket controllers pass
// []string{"socket", "N"} so dynamic from/to labels compose with the
// socket dimension.
func (r *Registry) LabeledCounterConst(name, help string, constLabels []string, labels ...string) *LabeledCounter {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: labeled counter %q needs label names", name))
	}
	lc := &LabeledCounter{
		name:     sanitizeMetric(name),
		help:     help,
		constLbl: constLabelSet(constLabels),
		labels:   labels,
		children: make(map[string]*labeledChild),
	}
	r.register(lc.name+braced(lc.constLbl), lc)
	return lc
}

// With returns the child counter for the given label values (one per
// label name, in order), creating it on first use. Resolve children
// outside hot paths.
func (lc *LabeledCounter) With(values ...string) *Counter {
	if len(values) != len(lc.labels) {
		panic(fmt.Sprintf("telemetry: %s takes %d label values, got %d", lc.name, len(lc.labels), len(values)))
	}
	var sb strings.Builder
	sb.WriteByte('{')
	if lc.constLbl != "" {
		sb.WriteString(lc.constLbl)
		sb.WriteByte(',')
	}
	for i, name := range lc.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", name, escapeLabel(values[i]))
	}
	sb.WriteByte('}')
	key := sb.String()

	lc.mu.Lock()
	defer lc.mu.Unlock()
	child, ok := lc.children[key]
	if !ok {
		child = &labeledChild{rendered: key}
		lc.children[key] = child
		lc.order = append(lc.order, child)
	}
	return &child.c
}

// Values snapshots every child's count keyed by its rendered label
// set, for tests and JSON surfaces.
func (lc *LabeledCounter) Values() map[string]uint64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]uint64, len(lc.order))
	for _, ch := range lc.order {
		out[ch.rendered] = ch.c.Value()
	}
	return out
}

func (lc *LabeledCounter) family() string             { return lc.name }
func (lc *LabeledCounter) header() (help, typ string) { return lc.help, "counter" }
func (lc *LabeledCounter) exposeSamples(b *bytes.Buffer) {
	lc.mu.Lock()
	children := append([]*labeledChild(nil), lc.order...)
	lc.mu.Unlock()
	// Stable output regardless of creation order.
	sort.Slice(children, func(i, j int) bool { return children[i].rendered < children[j].rendered })
	for _, ch := range children {
		fmt.Fprintf(b, "%s%s %d\n", lc.name, ch.rendered, ch.c.Value())
	}
}

// funcFamily is a family whose samples a callback computes at scrape
// time.
type funcFamily struct {
	name, help, typ string
	labels          []string
	collect         func(emit func(v float64, labelValues ...string))
}

// Func registers a family of the given type ("gauge", "counter") whose
// samples collect computes on every scrape: collect calls emit once per
// sample, with one label value per labelNames entry, in order. It runs
// after the registry has released its own lock, so it may take the lock
// that guards the data it reads — gauges then report the state as of
// the scrape, and nothing is stored between scrapes.
func (r *Registry) Func(name, help, typ string, labelNames []string, collect func(emit func(v float64, labelValues ...string))) {
	f := &funcFamily{name: sanitizeMetric(name), help: help, typ: typ, labels: labelNames, collect: collect}
	r.register(f.name, f)
}

func (f *funcFamily) family() string             { return f.name }
func (f *funcFamily) header() (help, typ string) { return f.help, f.typ }
func (f *funcFamily) exposeSamples(b *bytes.Buffer) {
	kv := make([]string, 2*len(f.labels))
	f.collect(func(v float64, values ...string) {
		if len(values) != len(f.labels) {
			panic(fmt.Sprintf("telemetry: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
		}
		for i, name := range f.labels {
			kv[2*i], kv[2*i+1] = name, values[i]
		}
		fmt.Fprintf(b, "%s%s %s\n", f.name, braced(constLabelSet(kv)), formatValue(v))
	})
}

// formatValue renders a sample value: integral values as integers
// (16777216, not %g's 1.6777216e+07), anything else as %g does.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func exposeHeader(b *bytes.Buffer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// escapeLabel applies Prometheus label-value escaping (backslash,
// quote, newline).
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
