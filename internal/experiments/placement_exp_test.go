package experiments

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/placement"
	"repro/internal/workload"
)

// TestFleetPlacementShape checks the experiment's qualitative result:
// the engine must actually move at least one tenant off the exhausted
// socket, the moves must all settle, and the rebalanced fleet must beat
// static placement on aggregate IPC.
func TestFleetPlacementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := FleetPlacement(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tab.Rows) != 2 {
		t.Fatalf("want 2 rows (static, engine), got %d", len(res.Tab.Rows))
	}
	cell := func(row, col int) float64 {
		v, err := strconv.ParseFloat(res.Tab.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("row %d col %d %q: %v", row, col, res.Tab.Rows[row][col], err)
		}
		return v
	}
	const fleetCol, mlrCol, movesCol = 1, 2, 4
	if staticIPC, engineIPC := cell(0, fleetCol), cell(1, fleetCol); engineIPC <= staticIPC {
		t.Errorf("engine fleet IPC %.3f not above static %.3f", engineIPC, staticIPC)
	}
	if staticMLR, engineMLR := cell(0, mlrCol), cell(1, mlrCol); engineMLR < staticMLR*1.1 {
		t.Errorf("engine MLR IPC %.3f not >= 10%% above static %.3f", engineMLR, staticMLR)
	}
	if moves := cell(1, movesCol); moves < 1 {
		t.Errorf("engine run executed %v moves, want >= 1", moves)
	}
}

// TestPlacementSingleSocketInert is the determinism guard: on a
// single-socket host the engine must issue nothing, and a run with the
// engine wired into the tick loop must produce byte-identical output
// to a run without it — the placement subsystem is provably free when
// the topology gives it nothing to do.
func TestPlacementSingleSocketInert(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := tiny()

	run := func(eng *placement.Engine) (string, error) {
		specs := []vmSpec{
			{
				name: "mlr", baseline: 3,
				gen: func(h *host.Host) (workload.Generator, error) {
					return workload.NewMLR(16<<20, addr.PageSize4K, h.Allocator(), opts.Seed)
				},
			},
			{
				name: "lb", baseline: 2,
				gen: func(h *host.Host) (workload.Generator, error) {
					return workload.NewLookbusy(h.Allocator())
				},
			},
		}
		s, err := newScenario(opts, specs)
		if err != nil {
			return "", err
		}
		onTick := func(_ int, ctl *core.MultiController) {
			if eng == nil {
				return
			}
			v := placement.AgentView{Agent: "host", TotalWays: ctl.TotalWays()}
			for _, st := range ctl.Snapshot() {
				v.Workloads = append(v.Workloads, placement.WorkloadView{
					Name: st.Name, Socket: st.Socket, Category: st.State.String(),
					Ways: st.Ways, Baseline: st.Baseline,
				})
			}
			if ds := eng.Evaluate([]placement.AgentView{v}); len(ds) != 0 {
				t.Errorf("engine issued %d directives on a single-socket host", len(ds))
			}
		}
		ctl, err := s.run(ModeDCat, core.DefaultConfig(), opts.SteadyIntervals, onTick)
		if err != nil {
			return "", err
		}
		out := fmt.Sprintf("%+v\n", ctl.Snapshot())
		for _, vm := range s.host.VMs() {
			out += fmt.Sprintf("%s %+v\n", vm.Name, vm.Last())
		}
		return out, nil
	}

	plain, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := placement.NewEngine(placement.Config{})
	wired, err := run(eng)
	if err != nil {
		t.Fatal(err)
	}
	if plain != wired {
		t.Errorf("engine-wired run diverged from plain run:\nplain:\n%s\nwired:\n%s", plain, wired)
	}
	st := eng.State()
	if st.Issued != 0 || st.Executed != 0 || st.Settled != 0 || st.RolledBack != 0 || st.Failed != 0 {
		t.Errorf("engine not inert on single socket: %+v", st)
	}
	if st.Evaluations == 0 {
		t.Error("engine was never evaluated — guard is vacuous")
	}
}
