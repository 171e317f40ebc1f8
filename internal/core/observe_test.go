package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cat"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

// phasedMLR is an mlrBehavior that halves its memory intensity after
// switchAt intervals — MAPI (l1_ref/ret_ins) drops 0.5 → 0.25, well
// past the 10% phase threshold, driving one real phase change mid-run.
func phasedMLR(fit1, fit2, switchAt int) behavior {
	tick := 0
	return func(ways int) perf.Sample {
		tick++
		l1Ref, llcRef, fit := uint64(500_000), uint64(400_000), fit1
		if tick > switchAt {
			l1Ref, llcRef, fit = 250_000, 200_000, fit2
		}
		miss := 1 - float64(ways)/float64(fit)
		if miss < 0.01 {
			miss = 0.01
		}
		lat := miss*220 + (1-miss)*42
		cpi := 0.5 + 0.5*lat
		const retIns = 1_000_000
		return perf.Sample{
			L1Ref:   l1Ref,
			LLCRef:  llcRef,
			LLCMiss: uint64(miss * float64(llcRef)),
			RetIns:  retIns,
			Cycles:  uint64(retIns * cpi),
		}
	}
}

// TestDecisionTrace drives a workload through discovery, settlement,
// and a phase change, then reconstructs its full category history from
// the journal: the transition chain must be contiguous from the
// initial Keeper state to the live state, and the phase/baseline/way
// events must carry consistent values.
func TestDecisionTrace(t *testing.T) {
	j := obs.NewJournal(obs.DefaultJournalSize)
	var buf bytes.Buffer
	fs := obs.NewWriterSink(&buf)
	reg := telemetry.NewRegistry()

	r := newRig(t, DefaultConfig(), 12, []string{"web"}, []int{2},
		map[string]behavior{"web": phasedMLR(6, 4, 30)})
	r.ctl.SetSink(obs.Multi(j, fs))
	r.ctl.RegisterMetrics(reg)
	r.run(60)

	events := j.Explain("web", 0)
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	var transitions []obs.Event
	var phaseChanges, baselines, grants int
	lastTick := -1
	for _, e := range events {
		if e.Tick < lastTick {
			t.Fatalf("events out of order: tick %d after %d", e.Tick, lastTick)
		}
		lastTick = e.Tick
		switch e.Kind {
		case obs.KindStateTransition:
			transitions = append(transitions, e)
			if e.Reason == "" {
				t.Fatalf("transition without a reason: %+v", e)
			}
		case obs.KindPhaseChange:
			phaseChanges++
			if e.OldVal < 0.45 || e.OldVal > 0.55 || e.NewVal < 0.2 || e.NewVal > 0.3 {
				t.Fatalf("phase change MAPI %g -> %g, want ~0.5 -> ~0.25", e.OldVal, e.NewVal)
			}
		case obs.KindBaselineSet:
			baselines++
			if e.NewWays != 2 || e.NewVal <= 0 {
				t.Fatalf("baseline event %+v, want 2 ways and positive IPC", e)
			}
		case obs.KindWayGrant:
			grants++
			if e.NewWays <= e.OldWays {
				t.Fatalf("way grant does not grow: %+v", e)
			}
		case obs.KindWayReclaim:
			if e.NewWays >= e.OldWays {
				t.Fatalf("way reclaim does not shrink: %+v", e)
			}
		}
	}
	if phaseChanges != 1 {
		t.Fatalf("traced %d phase changes, want 1", phaseChanges)
	}
	if baselines < 2 {
		t.Fatalf("traced %d baselines, want one per phase (>= 2)", baselines)
	}
	if grants == 0 {
		t.Fatal("no way grants traced while growing from a 2-way baseline")
	}

	// The transition chain reconstructs the state machine's path: it
	// starts at the initial Keeper, every link is contiguous, and it
	// ends at the controller's live state.
	if len(transitions) < 3 {
		t.Fatalf("only %d transitions traced: %+v", len(transitions), transitions)
	}
	if transitions[0].From != StateKeeper.String() {
		t.Fatalf("history starts at %s, want Keeper", transitions[0].From)
	}
	for i := 1; i < len(transitions); i++ {
		if transitions[i].From != transitions[i-1].To {
			t.Fatalf("broken chain at %d: %s -> %s then %s -> %s",
				i, transitions[i-1].From, transitions[i-1].To,
				transitions[i].From, transitions[i].To)
		}
	}
	live, _ := r.ctl.StateOf("web")
	if got := transitions[len(transitions)-1].To; got != live.String() {
		t.Fatalf("history ends at %s, controller says %s", got, live)
	}

	// The JSONL stream (the -trace-file format) reconstructs the same
	// history.
	fromFile, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var fileTransitions []obs.Event
	for _, e := range fromFile {
		if e.Kind == obs.KindStateTransition && e.Workload == "web" {
			fileTransitions = append(fileTransitions, e)
		}
	}
	if len(fileTransitions) != len(transitions) {
		t.Fatalf("JSONL has %d transitions, journal %d", len(fileTransitions), len(transitions))
	}
	for i := range transitions {
		if fileTransitions[i] != transitions[i] {
			t.Fatalf("JSONL[%d] = %+v, journal %+v", i, fileTransitions[i], transitions[i])
		}
	}

	// Metrics agree with the trace.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dcat_tick_seconds histogram",
		"dcat_tick_seconds_count 60",
		"# TYPE dcat_state_transitions_total counter",
		"dcat_phase_changes_total 1",
		"# TYPE dcat_pool_free_ways gauge",
		"# TYPE dcat_allocation_churn_ways_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	var counted uint64
	for _, v := range r.ctl.loops[0].metrics.transVec.Values() {
		counted += v
	}
	if counted != uint64(len(transitions)) {
		t.Fatalf("transition counters total %d, journal has %d", counted, len(transitions))
	}
}

// TestTickAllocationsWithTracing is the overhead gate for the
// observability layer: a journal sink plus registered metrics must not
// add more than a fixed budget of heap allocations to the tick hot
// path, and the causality wrapper (obs.Trace) must ride along for
// free — the trace stamp is a field write on a value struct, so a
// fleet that never queries a trace pays nothing for the ids. Events
// are value structs with constant reason strings and the ring is
// preallocated, so the steady-state cost is ~0.
func TestTickAllocationsWithTracing(t *testing.T) {
	const workloads = 4
	measure := func(traced, causality bool) float64 {
		file := perf.NewFile(workloads)
		mgr, err := cat.NewManager(&fakeBackend{ways: 20})
		if err != nil {
			t.Fatal(err)
		}
		behaviors := []behavior{mlrBehavior(6), streamBehavior(), idleBehavior(), mlrBehavior(4)}
		targets := make([]Target, workloads)
		for i := range targets {
			targets[i] = Target{Name: []string{"a", "b", "c", "d"}[i], Cores: []int{i}, BaselineWays: 1}
		}
		ctl, err := New(DefaultConfig(), mgr, file, targets)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			sink := obs.Sink(obs.NewJournal(obs.DefaultJournalSize))
			if causality {
				sink = obs.Trace(sink, obs.NewIDGen(1))
			}
			ctl.SetSink(sink)
			ctl.RegisterMetrics(telemetry.NewRegistry())
		}
		return testing.AllocsPerRun(200, func() {
			for i := range targets {
				s := behaviors[i](ctl.Ways(targets[i].Name))
				bank := file.Core(i)
				bank.Add(perf.L1Hits, s.L1Ref)
				bank.Add(perf.LLCReferences, s.LLCRef)
				bank.Add(perf.LLCMisses, s.LLCMiss)
				bank.Add(perf.RetiredInstructions, s.RetIns)
				bank.Add(perf.UnhaltedCycles, s.Cycles)
			}
			if err := ctl.Tick(); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(false, false)
	traced := measure(true, false)
	causal := measure(true, true)
	const budget = 2.0
	if traced > base+budget {
		t.Fatalf("tracing adds %.2f allocs/tick (untraced %.2f, traced %.2f); budget is %.0f",
			traced-base, base, traced, budget)
	}
	// Stamping root spans onto every event must not allocate at all
	// beyond the plain traced path.
	if causal > traced {
		t.Fatalf("causality wrapper adds %.2f allocs/tick (traced %.2f, causal %.2f); want 0",
			causal-traced, traced, causal)
	}
}
