package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perf"
)

// smallConfig runs a workload end to end at roughly 1/50 scale: 0.2 s
// of timed work and shrunken fixed set-up sizes.
func smallConfig(t *testing.T, workload string, seed int64) runConfig {
	t.Helper()
	return runConfig{
		Workload:     workload,
		Seed:         seed,
		Seconds:      0.2,
		OutDir:       t.TempDir(),
		Scratch:      t.TempDir(),
		SetupRepeats: 1,
		Small:        true,
	}
}

func mustRun(t *testing.T, cfg runConfig) *outcome {
	t.Helper()
	out, err := runOne(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	for _, p := range out.Problems {
		t.Errorf("%s: verification: %s", cfg.Workload, p)
	}
	if out.Digest == "" {
		t.Errorf("%s: no digest", cfg.Workload)
	}
	return out
}

// Every workload runs end to end with its verification on, reports the
// end-to-end metrics, repeats its digest for the same seed and
// changes it for another.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			a := mustRun(t, smallConfig(t, w.Name, 1))
			for _, d := range endToEnd {
				m, ok := a.get(d.Name)
				if !ok || m.Value <= 0 {
					t.Errorf("%s = %v (reported %v), want a positive value", d.Name, m.Value, ok)
				}
			}
			if a.Attempted < 1 || a.Failed != 0 {
				t.Errorf("attempted %d failed %d", a.Attempted, a.Failed)
			}
			b := mustRun(t, smallConfig(t, w.Name, 1))
			if a.Digest != b.Digest {
				t.Errorf("same seed, different digests: %s vs %s", a.Digest, b.Digest)
			}
			c := mustRun(t, smallConfig(t, w.Name, 2))
			if a.Digest == c.Digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.Digest)
			}
		})
	}
}

// A traced run reports every per-layer metric (zero where the layer is
// not exercised), writes its span file, keeps the digest, and its layer
// shares reproduce the written predictions: the simulator layers are
// absent from ctl-phases, placement from fleet-ingest, and the
// controller is a minor share of sim-steady.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			plain := mustRun(t, smallConfig(t, w.Name, 1))
			cfg := smallConfig(t, w.Name, 1)
			cfg.Trace = true
			traced := mustRun(t, cfg)
			for _, d := range perLayer {
				if _, ok := traced.get(d.Name); !ok {
					t.Errorf("traced run did not report %s", d.Name)
				}
			}
			if traced.Digest != plain.Digest {
				t.Errorf("tracing changed the digest: %s vs %s", traced.Digest, plain.Digest)
			}
			data, err := os.ReadFile(cfg.OutDir + "/trace-" + w.Name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Total, Written int
				Spans          []struct {
					ID, Parent  int
					Layer, Name string
				}
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("span file is not JSON: %v", err)
			}
			if doc.Total == 0 || len(doc.Spans) != doc.Written {
				t.Errorf("span file: total %d written %d spans %d", doc.Total, doc.Written, len(doc.Spans))
			}

			want := func(name string, positive bool) {
				t.Helper()
				if v := traced.value(name); (v > 0) != positive {
					t.Errorf("%s = %v, want positive=%v", name, v, positive)
				}
			}
			switch w.Name {
			case "sim-steady":
				// At test scale an interval is a tenth of the real one, so
				// the controller's share is ten times its real 0.04%; it
				// must still be minor.
				if v := traced.value("core.tick_share"); v <= 0 || v >= 0.25 {
					t.Errorf("core.tick_share = %v, want a small positive share", v)
				}
				want("workload.gen_ns_per_line", true)
				want("cache.llc_ns_per_access", true)
			case "ctl-phases":
				for _, name := range []string{"workload.gen_ns_per_line", "memsys.ns_per_access", "cache.llc_ns_per_access", "host.interval_ms_p50"} {
					want(name, false) // no simulator behind the controller
				}
				want("core.tick_us_p50", true)
				want("policy.lfoc.propose_us_p50", true)
			case "fleet-ingest":
				want("placement.evaluate_ms_p50", false) // engine absent
				want("flightrec.append_us_p50", true)
			case "fleet-mixed":
				want("placement.evaluate_ms_p50", true)
				want("flightrec.select_vm_ms_p50", true)
			}
		})
	}
}

// The timing wrappers (BulkGenerator, AllocationPolicy, Backend, Sink,
// counter reader) must not change what the program computes.
func TestWrappersLeaveDigestsUnchanged(t *testing.T) {
	for _, name := range []string{"sim-steady", "ctl-phases"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plain := mustRun(t, smallConfig(t, name, 3))
			cfg := smallConfig(t, name, 3)
			cfg.WrapOnly = true
			wrapped := mustRun(t, cfg)
			if plain.Digest != wrapped.Digest {
				t.Errorf("wrappers changed the digest: %s vs %s", plain.Digest, wrapped.Digest)
			}
		})
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // ten samples beyond the 90th
		{99, 0.9, 90, false}, // nine
		{20, 0.5, 10, true},  // ten beyond the median
		{19, 0.5, 10, false}, // nine
		{1000, 0.99, 990, true},
		{150, 0.99, 149, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(sorted(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// The end-to-end metrics leave nothing out: the rate is all the work over
// all the time, the percentiles run over every operation — the slow ones
// included — and a percentile is thin unless ten of the samples it was
// taken over lie beyond it.
func TestHeadlineCountsEveryOperation(t *testing.T) {
	lat := &dist{}
	for i := 0; i < 90; i++ {
		lat.add(1)
	}
	for i := 0; i < 20; i++ {
		lat.add(50) // a stall covering under a fifth of the run
	}
	out := &outcome{}
	out.setHeadline(1100, 11, lat)
	if m, _ := out.get("throughput_per_s"); m.Value != 100 || m.N != 110 {
		t.Errorf("throughput = %+v, want 100 over 110 operations", m)
	}
	if m, _ := out.get("latency_ms_p50"); m.Value != 1 || m.Thin {
		t.Errorf("p50 = %+v, want 1, not thin", m)
	}
	if m, _ := out.get("latency_ms_p90"); m.Value != 50 || m.Thin || m.N != 110 {
		t.Errorf("p90 = %+v, want the stall's 50 (11 samples beyond rank 99 of 110), not thin", m)
	}
	lat.vals = lat.vals[:99]
	out.setHeadline(990, 9.9, lat)
	if m, _ := out.get("latency_ms_p90"); !m.Thin {
		t.Errorf("p90 over 99 samples = %+v, want thin (9 beyond)", m)
	}
}

// A child's outcome survives the JSON line it is handed to the parent in.
func TestOutcomeRoundTripsThroughJSON(t *testing.T) {
	out := &outcome{Workload: "w", Attempted: 3, Failed: 1, Digest: "d"}
	out.problemf("broken %d", 1)
	out.set("setup_s", 0.5, 3)
	out.setThin("latency_ms_p90", 2.5, 40, true)
	line, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back outcome
	if err := json.Unmarshal(lastLine(append([]byte("metric x 1 s n=1\n"), append(line, '\n')...)), &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "w" || back.Attempted != 3 || back.Failed != 1 || back.Digest != "d" || len(back.Problems) != 1 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if m, ok := back.get("latency_ms_p90"); !ok || m.Value != 2.5 || m.N != 40 || !m.Thin || m.Unit != "ms" {
		t.Errorf("latency_ms_p90 came back as %+v (%v)", m, ok)
	}
}

// Same seed, byte-identical generated inputs; another seed, other
// inputs — for the fleet's requests and for the controller's counters.
func TestGeneratorsFollowTheSeed(t *testing.T) {
	requests := func(seed int64) string {
		a := newBenchAgent(rand.New(rand.NewSource(seed)), "agent-00", "vm")
		data, err := json.Marshal([]any{a.reports, a.batches})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(data))
	}
	fixedWays := waysFunc(func(string) int { return 3 })
	counters := func(seed int64) string {
		fleet, file := newTenantFleet(seed), perf.NewFile(ctlCPUs)
		for tick := 0; tick < 2000; tick++ {
			fleet.step(tick, fixedWays, file)
		}
		hsh := sha256.New()
		hashCounters(hsh, file, ctlCPUs)
		return fmt.Sprintf("%x", hsh.Sum(nil))
	}
	for name, gen := range map[string]func(int64) string{"requests": requests, "counters": counters} {
		if gen(7) != gen(7) {
			t.Errorf("%s: same seed, different stream", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

type waysFunc func(string) int

func (f waysFunc) Ways(name string) int { return f(name) }

// Open-loop latency is measured from the due time: one stalled request
// makes the rounds queued behind it late too, even though each of those
// is served instantly.
func TestOpenLoopChargesStallToLaterRounds(t *testing.T) {
	const (
		period = 10 * time.Millisecond
		stall  = 80 * time.Millisecond
	)
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	fromDue := make([]time.Duration, 0, 4)
	own := make([]time.Duration, 0, 4)
	openLoop(time.Now(), period, 4, func(k int, due time.Time) {
		sent := time.Now()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		own = append(own, time.Since(sent))
		fromDue = append(fromDue, time.Since(due))
	})
	if len(fromDue) != 4 {
		t.Fatalf("ran %d rounds, want 4", len(fromDue))
	}
	if fromDue[0] < stall {
		t.Errorf("stalled round took %v from its due time, want at least %v", fromDue[0], stall)
	}
	// Round 1 was due 10 ms in but could not start until the stall ended.
	for k := 1; k <= 2; k++ {
		inherited := stall - time.Duration(k)*period
		if fromDue[k] < inherited-5*time.Millisecond {
			t.Errorf("round %d: %v from its due time, want about %v inherited from the stall", k, fromDue[k], inherited)
		}
		if own[k] > stall/4 {
			t.Errorf("round %d itself took %v; the test expects it to be served instantly", k, own[k])
		}
	}
}

// A digest that differs from expected.json is a failed verification.
func TestCorruptedExpectedDigestFails(t *testing.T) {
	cfg := runConfig{Workload: "sim-steady", Seed: 1, Seconds: runSeconds}
	out := &outcome{Workload: "sim-steady", Digest: "aaaa"}
	good := expectedFile{Seed: 1, Seconds: runSeconds, Digests: map[string]string{"sim-steady": "aaaa"}}
	checkAgainst(good, cfg, out)
	if len(out.Problems) != 0 {
		t.Fatalf("matching digest reported problems: %v", out.Problems)
	}
	bad := expectedFile{Seed: 1, Seconds: runSeconds, Digests: map[string]string{"sim-steady": "bbbb"}}
	checkAgainst(bad, cfg, out)
	if len(out.Problems) != 1 {
		t.Fatalf("corrupted digest reported %d problems, want 1", len(out.Problems))
	}
	// Another seed is verified across repeats only.
	other := &outcome{Workload: "sim-steady", Digest: "cccc"}
	cfg.Seed = 2
	checkAgainst(bad, cfg, other)
	if len(other.Problems) != 0 {
		t.Errorf("seed 2 was compared with expected.json: %v", other.Problems)
	}
	// The committed file parses and covers every workload.
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if e.Digests[w.Name] == "" {
			t.Errorf("expected.json has no digest for %s", w.Name)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	cases := []struct{ in, want []string }{
		{[]string{"--trace"}, []string{"--trace=1"}},
		{[]string{"--trace", "0"}, []string{"--trace=0"}},
		{[]string{"--workload", "x", "--trace", "1", "--seed", "3"}, []string{"--workload", "x", "--trace=1", "--seed", "3"}},
		{[]string{"--trace", "--repeats", "2"}, []string{"--trace=1", "--repeats", "2"}},
	}
	for _, c := range cases {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// BENCHMARK.json at the repo root is generated from the tables in
// metrics.go and workloads.go; a stale file fails here.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go run -C benchmark . --benchmark-json > BENCHMARK.json`. It should read:\n%s", want)
	}
}
