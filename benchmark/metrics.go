package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one benchmark metric. endToEnd and perLayer are the
// only copy of the vocabulary: BENCHMARK.json is generated from them
// (--benchmark-json) and a test fails when the committed file is stale.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the regression bound as a share of the parent's median
	// (end-to-end metrics only).
	Bound float64
}

// End-to-end metrics: one set that every workload reports on an
// untraced run, because the driver reads every listed end-to-end metric
// from every run of every workload. throughput_per_s is the workload's
// unit of work completed per second of the whole timed region;
// latency_ms_* are the p50 and p90 over every timed headline operation.
// The workload table in workloads.go says what the unit and the
// operation are.
//
// One name has one bound for all five workloads, so it is set by the
// noisiest of them (fleet-mixed), and by what this shared 2-core box
// resolves: README.md quotes the spreads. setup_s is the median of
// setupRepeats set-ups.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, printed by a traced run; a layer a workload does
// not exercise reads 0 there, which is itself the prediction ("cache,
// memsys and workload are absent from ctl-phases").
var perLayer = []metricDef{
	{"workload.gen_ns_per_line", "ns", "lower", 0},
	{"workload.gen_share", "ratio", "lower", 0},
	{"addr.newspace_us_per_mb", "us", "lower", 0},
	{"memsys.ns_per_access", "ns", "lower", 0},
	{"memsys.l1_hit_ratio", "ratio", "higher", 0},
	{"memsys.llc_miss_ratio", "ratio", "lower", 0},
	{"cache.l1_ns_per_access", "ns", "lower", 0},
	{"cache.llc_ns_per_access", "ns", "lower", 0},
	{"cache.flushways_us_p50", "us", "lower", 0},
	{"host.interval_ms_p50", "ms", "lower", 0},
	{"host.interval_ms_p90", "ms", "lower", 0},
	{"host.accesses_per_interval", "count", "higher", 0},
	{"sim.fleet_ipc", "ipc", "higher", 0},
	{"core.tick_us_p50", "us", "lower", 0},
	{"core.tick_us_p99", "us", "lower", 0},
	{"core.self_us_per_tick", "us", "lower", 0},
	{"core.tick_share", "ratio", "lower", 0},
	{"core.transitions_per_kilotick", "count", "lower", 0},
	{"core.phase_changes_per_kilotick", "count", "lower", 0},
	{"policy.reactive.propose_us_p50", "us", "lower", 0},
	{"policy.reactive.propose_us_p99", "us", "lower", 0},
	{"policy.reactive.ticks_per_s", "1/s", "higher", 0},
	{"policy.predictive.propose_us_p50", "us", "lower", 0},
	{"policy.predictive.propose_us_p99", "us", "lower", 0},
	{"policy.predictive.ticks_per_s", "1/s", "higher", 0},
	{"policy.lfoc.propose_us_p50", "us", "lower", 0},
	{"policy.lfoc.propose_us_p99", "us", "lower", 0},
	{"policy.lfoc.ticks_per_s", "1/s", "higher", 0},
	{"obs.emit_ns_per_event", "ns", "lower", 0},
	{"obs.events_per_kilotick", "count", "lower", 0},
	{"obs.filesink_bytes_per_event", "bytes", "lower", 0},
	{"cat.apply_us_p50", "us", "lower", 0},
	{"cat.apply_us_p99", "us", "lower", 0},
	{"cat.applies_per_kilotick", "count", "lower", 0},
	{"perf.read_ns_per_counter", "ns", "lower", 0},
	{"study.scenario_s_p50", "s", "lower", 0},
	{"study.arrivals", "count", "higher", 0},
	{"study.departures", "count", "higher", 0},
	{"study.migrations", "count", "higher", 0},
	{"study.moves", "count", "higher", 0},
	{"study.grace_violations", "count", "lower", 0},
	{"cluster.decode_report_us_p50", "us", "lower", 0},
	{"cluster.decode_events_us_p50", "us", "lower", 0},
	{"cluster.handler_report_us_p50", "us", "lower", 0},
	{"cluster.handler_report_us_p99", "us", "lower", 0},
	{"cluster.handler_events_us_p50", "us", "lower", 0},
	{"cluster.handler_events_us_p99", "us", "lower", 0},
	{"cluster.transport_us_p50", "us", "lower", 0},
	{"cluster.lock_wait_us_mean", "us", "lower", 0},
	{"cluster.lock_hold_us_mean", "us", "lower", 0},
	{"cluster.lock_hold_share", "ratio", "lower", 0},
	{"cluster.tenant_snapshot_ms_p50", "ms", "lower", 0},
	{"cluster.client_retries", "count", "lower", 0},
	{"flightrec.append_us_p50", "us", "lower", 0},
	{"flightrec.append_us_p99", "us", "lower", 0},
	{"flightrec.append_us_per_event", "us", "lower", 0},
	{"flightrec.append_us_mean", "us", "lower", 0},
	{"flightrec.select_vm_ms_p50", "ms", "lower", 0},
	{"flightrec.select_tail_ms_p50", "ms", "lower", 0},
	{"flightrec.select_kind_ms_p50", "ms", "lower", 0},
	{"flightrec.select_trace_ms_p50", "ms", "lower", 0},
	{"flightrec.select_useful_ratio", "ratio", "higher", 0},
	{"flightrec.segments", "count", "lower", 0},
	{"flightrec.bytes", "bytes", "lower", 0},
	{"flightrec.records", "count", "higher", 0},
	{"flightrec.lost", "count", "lower", 0},
	{"flightrec.duplicates", "count", "lower", 0},
	{"placement.evaluate_ms_p50", "ms", "lower", 0},
	{"placement.evaluate_ms_p90", "ms", "lower", 0},
	{"placement.directives_issued", "count", "lower", 0},
	{"httpstatus.query_overhead_ms_p50", "ms", "lower", 0},
	{"httpstatus.response_bytes_per_query", "bytes", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"loadgen.report_ms_p50", "ms", "lower", 0},
	{"loadgen.report_ms_p90", "ms", "lower", 0},
	{"loadgen.events_ms_p50", "ms", "lower", 0},
	{"loadgen.events_ms_p90", "ms", "lower", 0},
	{"loadgen.query_ms_p50", "ms", "lower", 0},
	{"loadgen.query_ms_p90", "ms", "lower", 0},
	{"loadgen.lateness_ms_p90", "ms", "lower", 0},
	{"loadgen.ops_attempted", "count", "higher", 0},
	{"loadgen.ops_failed", "count", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// unitOf resolves a metric's unit from the two lists ("" if unknown).
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one noisy sample's position,
// not a property of the distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// sorted. ok is false when fewer than minBeyond samples lie beyond the
// returned rank — the caller must then not report the percentile.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// dist is a set of timing (or other) samples a workload collected.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

func (d *dist) n() int { return len(d.vals) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

func (d *dist) pct(p float64) (float64, bool) {
	d.sort()
	return percentile(d.vals, p)
}

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// median of a small slice (repeat aggregation, set-up repeats); it
// averages the two middle values for an even count.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// measurement is one reported metric value.
type measurement struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value (0 for counts and ratios).
	N int `json:"n"`
	// Thin marks a percentile with fewer than minBeyond samples beyond
	// it: printed for diagnosis, never used for a verdict.
	Thin bool `json:"thin,omitempty"`
}

// outcome is everything one run of one workload produced. A child
// process hands it to the orchestrating parent as one JSON line.
type outcome struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest fingerprints the program's outputs; equal seeds and sizes
	// must give equal digests on any build that only changes speed.
	Digest string `json:"digest"`
	// Problems lists failed verification checks; empty means correct.
	Problems []string      `json:"problems,omitempty"`
	Metrics  []measurement `json:"metrics"`
	index    map[string]int
}

func (o *outcome) set(name string, v float64, n int) {
	o.setThin(name, v, n, false)
}

func (o *outcome) setThin(name string, v float64, n int, thin bool) {
	m := measurement{Name: name, Value: v, Unit: unitOf(name), N: n, Thin: thin}
	if o.index == nil {
		o.index = make(map[string]int)
	}
	if i, ok := o.index[name]; ok {
		o.Metrics[i] = m
		return
	}
	o.index[name] = len(o.Metrics)
	o.Metrics = append(o.Metrics, m)
}

// setPct reports percentile p of d under name, flagging it thin when
// the sample count cannot support it.
func (o *outcome) setPct(name string, d *dist, p float64) {
	o.setPctScaled(name, d, p, 1)
}

// setPctScaled is setPct with the value converted to the metric's unit
// (span durations are kept in ns).
func (o *outcome) setPctScaled(name string, d *dist, p, scale float64) {
	v, ok := d.pct(p)
	o.setThin(name, v*scale, d.n(), !ok)
}

// setHeadline reports a timed region's end-to-end metrics: units of
// work completed per second of the whole region, and the p50 and p90
// over every timed headline operation. Nothing is filtered: a stall, a
// GC pause or a segment rotation that the region contains is in both.
func (o *outcome) setHeadline(work, seconds float64, lat *dist) {
	o.set("throughput_per_s", work/seconds, lat.n())
	o.setPct("latency_ms_p50", lat, 0.5)
	o.setPct("latency_ms_p90", lat, 0.9)
}

func (o *outcome) get(name string) (measurement, bool) {
	if o.index == nil { // decoded from a child's JSON
		o.index = make(map[string]int, len(o.Metrics))
		for i, m := range o.Metrics {
			o.index[m.Name] = i
		}
	}
	i, ok := o.index[name]
	if !ok {
		return measurement{}, false
	}
	return o.Metrics[i], true
}

func (o *outcome) value(name string) float64 {
	m, _ := o.get(name)
	return m.Value
}

func (o *outcome) problemf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}
