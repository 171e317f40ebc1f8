package telemetry

import (
	"io"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dcat_test_total", "a counter")
	g := reg.Gauge("dcat_test_free", "a gauge")
	c.Inc()
	c.Add(4)
	g.Set(2.5)
	if c.Value() != 5 || g.Value() != 2.5 {
		t.Fatalf("counter %d gauge %g", c.Value(), g.Value())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dcat_test_total counter", "dcat_test_total 5",
		"# TYPE dcat_test_free gauge", "dcat_test_free 2.5",
		"# HELP dcat_test_total a counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Registration order is exposition order.
	if strings.Index(out, "dcat_test_total") > strings.Index(out, "dcat_test_free") {
		t.Fatalf("metrics out of registration order:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Gauge("dup", "")
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("dcat_tick_seconds", "tick latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.0005+0.002+0.003+0.05+5; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dcat_tick_seconds histogram",
		`dcat_tick_seconds_bucket{le="0.001"} 1`,
		`dcat_tick_seconds_bucket{le="0.01"} 3`,
		`dcat_tick_seconds_bucket{le="0.1"} 4`,
		`dcat_tick_seconds_bucket{le="+Inf"} 5`,
		"dcat_tick_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{1, 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("Count = %d, want 4000", h.Count())
	}
	if h.Sum() != 6000 {
		t.Fatalf("Sum = %g, want 6000", h.Sum())
	}
}

func TestLabeledCounter(t *testing.T) {
	reg := NewRegistry()
	lc := reg.LabeledCounter("dcat_state_transitions_total", "transitions", "from", "to")
	ku := lc.With("Keeper", "Unknown")
	ku.Inc()
	ku.Inc()
	lc.With("Unknown", "Receiver").Inc()
	// With for the same values returns the same child.
	if lc.With("Keeper", "Unknown") != ku {
		t.Fatal("With not idempotent")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`dcat_state_transitions_total{from="Keeper",to="Unknown"} 2`,
		`dcat_state_transitions_total{from="Unknown",to="Receiver"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	vals := lc.Values()
	if vals[`{from="Keeper",to="Unknown"}`] != 2 {
		t.Fatalf("Values = %v", vals)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	lc := reg.LabeledCounter("m", "", "name")
	lc.With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `m{name="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

// TestFunc pins the scrape-time family: samples come from the collector
// on every scrape, integral values print as integers, label values get
// Prometheus escaping (and nothing else — a no-break space stays raw),
// and a family that emits nothing writes no header.
func TestFunc(t *testing.T) {
	reg := NewRegistry()
	n := 16777216.0
	reg.Func("dcat_bytes", "Bytes held.", "gauge", []string{"workload"}, func(emit func(float64, ...string)) {
		emit(n, "a\u00a0b")
		emit(2.5, `q"x\y`)
	})
	reg.Func("dcat_total", "", "counter", nil, func(emit func(float64, ...string)) { emit(1e6) })
	reg.Func("dcat_empty", "Never emits.", "gauge", nil, func(func(float64, ...string)) {})

	scrape := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := "# HELP dcat_bytes Bytes held.\n# TYPE dcat_bytes gauge\n" +
		"dcat_bytes{workload=\"a\u00a0b\"} 16777216\n" +
		`dcat_bytes{workload="q\"x\\y"} 2.5` + "\n" +
		"# TYPE dcat_total counter\ndcat_total 1000000\n"
	if got := scrape(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	n = 3
	if got := scrape(); !strings.Contains(got, "dcat_bytes{workload=\"a\u00a0b\"} 3\n") {
		t.Fatalf("collector not re-run on scrape:\n%s", got)
	}
}

func TestFuncLabelArity(t *testing.T) {
	reg := NewRegistry()
	reg.Func("m", "", "gauge", []string{"a", "b"}, func(emit func(float64, ...string)) { emit(1, "only-one") })
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	_ = reg.WritePrometheus(io.Discard)
}

func TestSanitizeMetric(t *testing.T) {
	tests := []struct{ in, want string }{
		{"agents_alive", "agents_alive"},
		{"ways allocated", "ways_allocated"},
		{"ipc/web-0", "ipc_web_0"},
		{"9lives", "_lives"},
		{"a:b", "a:b"},
	}
	for _, tt := range tests {
		if got := sanitizeMetric(tt.in); got != tt.want {
			t.Errorf("sanitizeMetric(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
