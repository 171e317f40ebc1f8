package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cat"
	"repro/internal/perf"
	"repro/internal/policy"
)

// TestPolicyGoldenTrace extends the reactive determinism guard to the
// learning engines: predictive and lfoc run goldenTrace's scenario, and
// a phase-cycling one that lets the sequence model become confident,
// under both modes. They must reproduce the recorded decisions bit for
// bit, together with every policy note (predictions, pre-grants, cluster
// moves) they surfaced along the way.
//
// Regenerate (only when the *intended* behavior changes) with:
//
//	DCAT_UPDATE_GOLDEN=1 go test ./internal/core -run TestPolicyGoldenTrace/NAME -v
//
// and paste the printed trace over its constant in
// golden_policy_const_test.go.
func TestPolicyGoldenTrace(t *testing.T) {
	for _, tc := range []struct {
		name, want string
	}{
		{"predictive", predictiveGolden},
		{"lfoc", lfocGolden},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got strings.Builder
			for _, scenario := range []struct {
				label string
				run   func(*testing.T, Config) string
			}{{"golden", goldenTrace}, {"cycle", cycleTrace}} {
				for _, mode := range []struct {
					label string
					pol   Policy
				}{{"max-fairness", MaxFairness}, {"max-performance", MaxPerformance}} {
					var notes strings.Builder
					cfg := DefaultConfig()
					cfg.Policy = mode.pol
					cfg.NewPolicy = func() policy.AllocationPolicy {
						inner, err := policy.New(tc.name)
						if err != nil {
							t.Fatal(err)
						}
						return &noteRecorder{AllocationPolicy: inner(), out: &notes}
					}
					trace := scenario.run(t, cfg)
					fmt.Fprintf(&got, "== %s %s ==\n%s-- notes --\n%s",
						scenario.label, mode.label, trace, notes.String())
				}
			}
			if os.Getenv("DCAT_UPDATE_GOLDEN") != "" {
				fmt.Print(got.String())
				return
			}
			gl, el := strings.Split(got.String(), "\n"), strings.Split(tc.want, "\n")
			for i := 0; i < len(gl) && i < len(el); i++ {
				if gl[i] != el[i] {
					t.Fatalf("%s decisions diverged from the recorded trace at line %d:\n got %q\nwant %q",
						tc.name, i+1, gl[i], el[i])
				}
			}
			if len(gl) != len(el) {
				t.Fatalf("%s trace length changed: got %d lines, want %d", tc.name, len(gl), len(el))
			}
		})
	}
}

// noteRecorder wraps a policy and logs every note its Propose returns,
// one line each: "tick workload kind ways value label".
type noteRecorder struct {
	policy.AllocationPolicy
	out *strings.Builder
}

func (r *noteRecorder) Propose(v *policy.View, g *policy.Grants) {
	r.AllocationPolicy.Propose(v, g)
	for _, n := range g.Notes {
		fmt.Fprintf(r.out, "%02d %s %d %d %.4f %s\n",
			v.Tick, v.Workloads[n.Workload].Name, n.Kind, n.Ways, n.Value, n.Label)
	}
}

// cycleTrace drives recurring phases — the input the predictive
// sequence model learns from — and returns one line per tick:
// "tick name=state/ways/desire/denied ...". Every workload's phases
// differ in accesses per instruction, so each flip is a detected phase
// change.
func cycleTrace(t *testing.T, cfg Config) string {
	t.Helper()
	names := []string{"cycler", "sleeper", "table"}
	behaviors := []behavior{
		// Two cache-hungry phases of different sizes, ten ticks each:
		// long enough to settle, so pre-grants have a preferred point.
		cycleBehavior(10, mlrBehavior(6), withL1Ref(mlrBehavior(9), 900_000)),
		// Idle Donor that wakes into a working set on a fixed rhythm.
		cycleBehavior(8, idleBehavior(), withL1Ref(mlrBehavior(7), 700_000)),
		tableBehavior(12, 0.08),
	}
	file := perf.NewFile(len(names))
	mgr, err := cat.NewManager(&fakeBackend{ways: 20})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]Target, len(names))
	for i, n := range names {
		targets[i] = Target{Name: n, Cores: []int{i}, BaselineWays: 3}
	}
	ctl, err := New(cfg, mgr, file, targets)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for tick := 0; tick < 80; tick++ {
		for i, name := range names {
			s := behaviors[i](ctl.Ways(name))
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
		if err := mgr.Validate(); err != nil {
			t.Fatalf("CAT invariants violated: %v", err)
		}
		fmt.Fprintf(&b, "%02d", tick)
		for _, n := range names {
			w := ctl.ws[n]
			fmt.Fprintf(&b, " %s=%s/%d/%d/%v", n, w.state, w.ways, w.desire, w.denied)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cycleBehavior alternates between a and b every period ticks.
func cycleBehavior(period int, a, b behavior) behavior {
	tick := 0
	return func(ways int) perf.Sample {
		tick++
		if (tick-1)/period%2 == 0 {
			return a(ways)
		}
		return b(ways)
	}
}

// withL1Ref overrides a behavior's L1 references, moving its accesses
// per instruction — and so its phase key — without touching the miss
// model.
func withL1Ref(b behavior, l1Ref uint64) behavior {
	return func(ways int) perf.Sample {
		s := b(ways)
		s.L1Ref = l1Ref
		return s
	}
}
