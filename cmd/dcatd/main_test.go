package main

import (
	"context"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// runDemo parses args as main does (plus -demo, a millisecond period
// and a trace file), runs the daemon until its interval budget is
// spent, and returns the decision trace it wrote.
func runDemo(t *testing.T, args ...string) []obs.Event {
	t.Helper()
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	fs := flag.NewFlagSet("dcatd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, append([]string{"-demo", "-period", "1ms", "-trace-file", trace}, args...))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace file not parseable: %v", err)
	}
	return events
}

// TestDemoTraceFile checks the acceptance property of the -demo
// -trace-file trace: the file is parseable JSON Lines from which one
// workload's full state-transition history can be reconstructed.
func TestDemoTraceFile(t *testing.T) {
	events := runDemo(t, "-intervals", "25", "-journal", "128")
	if len(events) == 0 {
		t.Fatal("trace file empty after 25 demo intervals")
	}

	// Reconstruct the cache-hungry tenant's history. Every workload
	// enters the controller as a Keeper; from there each transition must
	// chain onto the previous one and ticks must not go backwards.
	var chain []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindStateTransition && e.Workload == "mlr" {
			chain = append(chain, e)
		}
	}
	if len(chain) == 0 {
		t.Fatalf("no state transitions traced for mlr; kinds seen: %v", events)
	}
	if chain[0].From != "Keeper" {
		t.Fatalf("history starts at %q, want the initial Keeper state", chain[0].From)
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].From != chain[i-1].To {
			t.Fatalf("history broken at %d: %+v after %+v", i, chain[i], chain[i-1])
		}
		if chain[i].Tick < chain[i-1].Tick {
			t.Fatalf("ticks run backwards at %d: %+v", i, chain[i])
		}
	}
}

// TestRunWithAndWithoutCoordinator drives the one loop for three
// intervals against a live coordinator, then standalone: the
// coordinator must have enrolled the host and counted a report per
// interval, and the local decisions must not depend on its presence.
func TestRunWithAndWithoutCoordinator(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	attached := runDemo(t, "-intervals", "3", "-coord", srv.URL, "-name", "host-a")
	st := coord.ClusterState()
	if st.AgentsTotal != 1 || st.Reports != 3 {
		t.Fatalf("coordinator saw %d agents, %d reports; want 1 and 3", st.AgentsTotal, st.Reports)
	}
	if a := st.Agents[0]; a.Name != "host-a" || !a.Alive || a.Tick != 3 || len(a.Workloads) != 3 {
		t.Fatalf("enrolled agent %+v", a)
	}

	standalone := runDemo(t, "-intervals", "3")
	if len(standalone) == 0 || !reflect.DeepEqual(attached, standalone) {
		t.Fatalf("local decisions differ:\nattached   %+v\nstandalone %+v", attached, standalone)
	}
}

// TestConfigRejectsOwnedFlags: -config replaces the flags the file
// expresses, so naming both is a start-up error that names the flag —
// before -demo or any hardware is opened.
func TestConfigRejectsOwnedFlags(t *testing.T) {
	conf := filepath.Join(t.TempDir(), "dcatd.json")
	raw := `{"groups":[{"name":"web","cpus":"0-3","baseline_ways":4}]}`
	if err := os.WriteFile(conf, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("dcatd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, args)
		return err
	}
	if err := parse("-config", conf, "-name", "host-a", "-demo", "-journal", "64"); err != nil {
		t.Fatalf("-config beside flags the file does not own: %v", err)
	}
	for _, owned := range [][]string{
		{"-resctrl", "/r"}, {"-msr", "/m"}, {"-period", "2s"}, {"-policy", "perf"},
		{"-alloc-policy", "lfoc"}, {"-http", ":9090"}, {"-group", "batch=4-7@2"},
	} {
		err := parse(append([]string{"-config", conf}, owned...)...)
		if err == nil || !strings.Contains(err.Error(), owned[0]) {
			t.Errorf("-config with %s: got %v, want an error naming the flag", owned[0], err)
		}
	}
}
