package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// determinismSubset is a representative, fast slice of the registry:
// pure set-conflict analysis (fig3), a replacement-policy sweep
// (ablation-replacement), CAT capacity effects (fig2), the performance
// table (table1), and a dCat-controlled streaming timeline (fig13).
var determinismSubset = []string{"fig3", "ablation-replacement", "fig2", "table1", "fig13"}

// TestParallelOutputMatchesSerial is the determinism guard for the
// golden files under results/: the engine at -j 4 must render byte-
// identical output to a serial run, in registry order.
func TestParallelOutputMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := Quick()
	runners := make([]Runner, 0, len(determinismSubset))
	for _, id := range determinismSubset {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	render := func(jobs int) string {
		var sb strings.Builder
		for _, res := range RunAll(context.Background(), runners, opts, EngineConfig{Jobs: jobs}) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Runner.ID, res.Err)
			}
			sb.WriteString(res.Output)
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("parallel output diverges from serial:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
}

func fakeRunner(id string, err error) Runner {
	return Runner{ID: id, Title: id, Run: func(Options) (string, error) {
		if err != nil {
			return "", err
		}
		return id + "\n", nil
	}}
}

// TestRunAllCollectsAllFailures checks the engine keeps going past
// failures and reports every one, in input order.
func TestRunAllCollectsAllFailures(t *testing.T) {
	boom1, boom2 := errors.New("boom1"), errors.New("boom2")
	runners := []Runner{
		fakeRunner("a", nil),
		fakeRunner("b", boom1),
		fakeRunner("c", nil),
		fakeRunner("d", boom2),
	}
	results := RunAll(context.Background(), runners, Quick(), EngineConfig{Jobs: 2})
	if len(results) != len(runners) {
		t.Fatalf("got %d results, want %d", len(results), len(runners))
	}
	for i, r := range results {
		if r.Runner.ID != runners[i].ID {
			t.Fatalf("result %d is %s, want %s (order lost)", i, r.Runner.ID, runners[i].ID)
		}
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy runners failed: %v, %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, boom1) || !errors.Is(results[3].Err, boom2) {
		t.Fatalf("failures not preserved: %v, %v", results[1].Err, results[3].Err)
	}
	if results[0].Output != "a\n" || results[2].Output != "c\n" {
		t.Fatalf("outputs lost: %q, %q", results[0].Output, results[2].Output)
	}
}

// TestRunAllFailFast checks FailFast cancels unstarted experiments
// after the first failure.
func TestRunAllFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	runners := []Runner{fakeRunner("fails", boom)}
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("r%d", i)
		runners = append(runners, Runner{ID: id, Title: id, Run: func(Options) (string, error) {
			ran.Add(1)
			return "ok\n", nil
		}})
	}
	results := RunAll(context.Background(), runners, Quick(), EngineConfig{Jobs: 1, FailFast: true})
	if !errors.Is(results[0].Err, boom) {
		t.Fatalf("first result: %v, want boom", results[0].Err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d experiments ran after the failure with Jobs=1, want 0", got)
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("result %d: %v, want context.Canceled", i, results[i].Err)
		}
	}
}

// TestFig17ParallelMatchesSerial guards the SPEC sweep's inner
// parallelism: the engine's worker budget must not change the rendered
// table.
func TestFig17ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := Quick()
	// The smallest legal scale: this test compares two full SPEC
	// sweeps, so fidelity is irrelevant — only equality matters.
	opts.Cycles = 1_000_000
	opts.SteadyIntervals = 5
	fig17, err := ByID("fig17")
	if err != nil {
		t.Fatal(err)
	}
	run := func(jobs int) string {
		res := RunAll(context.Background(), []Runner{fig17}, opts, EngineConfig{Jobs: jobs})[0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Output
	}
	if serial, parallel := run(1), run(4); serial != parallel {
		t.Fatalf("fig17 diverges with Jobs=4:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// gauge measures peak concurrency of the code section bracketed by
// enter/exit.
type gauge struct {
	cur, max atomic.Int32
}

func (g *gauge) enter() {
	c := g.cur.Add(1)
	for {
		m := g.max.Load()
		if c <= m || g.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

// TestSharedBudgetBoundsSweeps is the regression test for the -j
// multiplication bug: several sweep-style experiments under RunAll
// must never have more simulation points in flight than the engine's
// Jobs budget, no matter how wide each inner sweep is.
func TestSharedBudgetBoundsSweeps(t *testing.T) {
	const (
		budget   = 3
		nRunners = 4
		nPoints  = 12
	)
	var g gauge
	var ran atomic.Int32
	runners := make([]Runner, 0, nRunners)
	for r := 0; r < nRunners; r++ {
		id := fmt.Sprintf("sweep%d", r)
		runners = append(runners, Runner{ID: id, Title: id, Run: func(opts Options) (string, error) {
			return "", opts.sweep(nPoints, func(int) error {
				g.enter()
				defer g.exit()
				ran.Add(1)
				time.Sleep(2 * time.Millisecond)
				return nil
			})
		}})
	}
	for _, res := range RunAll(context.Background(), runners, Quick(), EngineConfig{Jobs: budget}) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Runner.ID, res.Err)
		}
	}
	if got := ran.Load(); got != nRunners*nPoints {
		t.Fatalf("%d sweep points ran, want %d", got, nRunners*nPoints)
	}
	if peak := g.max.Load(); peak > budget {
		t.Fatalf("peak concurrency %d exceeds the shared budget %d", peak, budget)
	}
}

// TestSweepWidensOntoIdleBudget: when one experiment has the engine to
// itself, its sweep must grow past one worker by borrowing the idle
// slots.
func TestSweepWidensOntoIdleBudget(t *testing.T) {
	const budget = 4
	var g gauge
	runners := []Runner{{ID: "solo", Title: "solo", Run: func(opts Options) (string, error) {
		return "", opts.sweep(16, func(int) error {
			g.enter()
			defer g.exit()
			time.Sleep(2 * time.Millisecond)
			return nil
		})
	}}}
	for _, res := range RunAll(context.Background(), runners, Quick(), EngineConfig{Jobs: budget}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	peak := g.max.Load()
	if peak < 2 {
		t.Fatalf("peak concurrency %d: the sweep never borrowed an idle worker", peak)
	}
	if peak > budget {
		t.Fatalf("peak concurrency %d exceeds the budget %d", peak, budget)
	}
}

// TestPoolSweepSemantics: the pooled sweep's contract — every index
// runs exactly once and the reported error is the lowest-index one.
func TestPoolSweepSemantics(t *testing.T) {
	pool := newWorkerPool(4)
	var ran [37]atomic.Int32
	if err := pool.sweep(len(ran), func(i int) error {
		ran[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	boom5, boom9 := errors.New("boom5"), errors.New("boom9")
	err := pool.sweep(12, func(i int) error {
		switch i {
		case 5:
			return boom5
		case 9:
			return boom9
		}
		return nil
	})
	if !errors.Is(err, boom5) {
		t.Fatalf("got %v, want lowest-index error boom5", err)
	}
}

// TestRunAllHonoursCancelledContext checks a pre-cancelled context
// yields no execution at all.
func TestRunAllHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	runners := []Runner{{ID: "x", Title: "x", Run: func(Options) (string, error) {
		ran.Add(1)
		return "", nil
	}}}
	results := RunAll(ctx, runners, Quick(), EngineConfig{Jobs: 2})
	if ran.Load() != 0 {
		t.Fatal("experiment ran under a cancelled context")
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", results[0].Err)
	}
}
