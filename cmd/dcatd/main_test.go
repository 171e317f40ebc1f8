package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	dcat "repro"
	"repro/internal/daemoncfg"
	"repro/internal/obs"
)

// TestDemoTraceFile runs the demo loop exactly as the -demo
// -trace-file flags would and checks the acceptance property of the
// trace: the file is parseable JSON Lines from which one workload's
// full state-transition history can be reconstructed.
func TestDemoTraceFile(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	ob := daemoncfg.Obs{TraceFile: trace, JournalLen: 128}
	err := runDemo(context.Background(), dcat.DefaultConfig(), filepath.Join(dir, "tree"), 25, "", ob)
	if err != nil {
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
