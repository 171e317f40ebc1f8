package dcat

// End-to-end checks of one simulated node assembled the one way the
// repository builds it: host.New, AddVM / AddVMOn with workload.New*
// generators, host.Controllers, and a period being RunInterval then
// Tick. The hardware path (a resctrl tree under cat.Manager and a core
// controller) is driven against a mock tree.

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/addr"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/resctrl"
	"repro/internal/workload"
)

// newTestHost builds a host at a short controller period.
func newTestHost(t *testing.T, hc host.Config) *host.Host {
	t.Helper()
	hc.CyclesPerInterval = 4_000_000
	h, err := host.New(hc)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// run advances the node n controller periods.
func run(t *testing.T, h *host.Host, ctl *core.MultiController, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// occupancy merges every loop's CMT view of its socket's LLC.
func occupancy(ctl *core.MultiController) map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range ctl.Sockets() {
		m, _ := ctl.Controller(s).Occupancy()
		maps.Copy(out, m)
	}
	return out
}

func TestSimulationLifecycle(t *testing.T) {
	h := newTestHost(t, host.DefaultConfig())
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := workload.NewLookbusy(h.Allocator())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("tenant", 2, mlr); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("neighbor", 2, lb); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Controllers(core.DefaultConfig(), map[string]int{"tenant": 3}); err == nil {
		t.Fatal("missing baseline should fail")
	}
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{"tenant": 3, "neighbor": 3})
	if err != nil {
		t.Fatal(err)
	}
	run(t, h, ctl, 12)
	if snap := ctl.Snapshot(); len(snap) != 2 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	if w := ctl.Ways("tenant"); w <= 3 {
		t.Errorf("cache-hungry tenant stuck at %d ways; should have grown", w)
	}
	if w := ctl.Ways("neighbor"); w != 1 {
		t.Errorf("lookbusy neighbour at %d ways; should donate to 1", w)
	}
}

func TestSimulationXeonD(t *testing.T) {
	hc := host.DefaultConfig()
	hc.Mem = memsys.XeonD()
	h := newTestHost(t, hc)
	if _, err := h.AddVM("a", 2, workload.Idle{}); err != nil {
		t.Fatal(err)
	}
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{"a": 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctl.TotalWays(); got != 12 {
		t.Errorf("Xeon D loop manages %d ways, want 12", got)
	}
	run(t, h, ctl, 3)
}

func TestWorkloadConstructors(t *testing.T) {
	h := newTestHost(t, host.DefaultConfig())
	alloc := h.Allocator()
	if _, err := workload.NewMLOAD(60<<20, addr.PageSize4K, alloc); err != nil {
		t.Error(err)
	}
	if _, err := workload.NewRedis(alloc, 1); err != nil {
		t.Error(err)
	}
	if _, err := workload.NewPostgres(alloc, 1); err != nil {
		t.Error(err)
	}
	if _, err := workload.NewElasticsearch(alloc, 1); err != nil {
		t.Error(err)
	}
	p, err := workload.ProfileByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.NewSpec(p, alloc, 1); err != nil {
		t.Error(err)
	}
	if _, err := workload.ProfileByName("not-a-benchmark"); err == nil {
		t.Error("unknown SPEC profile should fail")
	}
}

func TestNewPhased(t *testing.T) {
	h := newTestHost(t, host.DefaultConfig())
	mlr, err := workload.NewMLR(1<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.NewPhased("job",
		workload.Stage{Gen: workload.Idle{}, Intervals: 2},
		workload.Stage{Gen: mlr})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "job" {
		t.Errorf("Name()=%q", p.Name())
	}
	if _, err := workload.NewPhased("empty"); err == nil {
		t.Error("empty phased should fail")
	}
}

// TestResctrlBackendThroughFacade checks the backend a hardware
// deployment hands cat.NewManager.
func TestResctrlBackendThroughFacade(t *testing.T) {
	dir := t.TempDir()
	if err := resctrl.CreateMockTree(dir, 20, 16, 18); err != nil {
		t.Fatal(err)
	}
	b, err := resctrl.NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalWays() != 20 {
		t.Errorf("TotalWays=%d", b.TotalWays())
	}
	if _, err := resctrl.NewBackend(t.TempDir()); err == nil {
		t.Error("non-resctrl dir should fail")
	}
}

func TestControllerAgainstMockResctrl(t *testing.T) {
	// The path a hardware deployment takes: resctrl backend + a
	// perf.Reader (here the simulator's counters standing in for perf
	// events).
	dir := t.TempDir()
	if err := resctrl.CreateMockTree(dir, 20, 16, 18); err != nil {
		t.Fatal(err)
	}
	backend, err := resctrl.NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := cat.NewManager(backend)
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHost(t, host.DefaultConfig())
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.AddVM("t", 2, mlr)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.New(core.DefaultConfig(), mgr, h.System().Counters(),
		[]core.Target{{Name: "t", Cores: vm.Cores, BaselineWays: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the host manually; the controller writes real schemata
	// files into the mock tree.
	for i := 0; i < 5; i++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if ctl.Ways("t") <= 3 {
		t.Errorf("ways=%d; controller should grow the tenant via resctrl writes", ctl.Ways("t"))
	}
}

func TestSimulationOccupancy(t *testing.T) {
	h := newTestHost(t, host.DefaultConfig())
	mlr, err := workload.NewMLR(4<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := workload.NewLookbusy(h.Allocator())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("hungry", 2, mlr); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("quiet", 2, lb); err != nil {
		t.Fatal(err)
	}
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{"hungry": 3, "quiet": 3})
	if err != nil {
		t.Fatal(err)
	}
	run(t, h, ctl, 5)
	occ := occupancy(ctl)
	if occ["hungry"] < 1<<20 {
		t.Errorf("hungry tenant occupancy %d; want >1MB", occ["hungry"])
	}
	if occ["quiet"] > 1<<20 {
		t.Errorf("lookbusy occupancy %d; want tiny", occ["quiet"])
	}
}

func TestTraceFacadeRoundTrip(t *testing.T) {
	h := newTestHost(t, host.DefaultConfig())
	mlr, err := workload.NewMLR(1<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := workload.NewRecorder(mlr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec.NextLine()
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := workload.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 {
		t.Errorf("trace len %d", got.Len())
	}
	if _, err := workload.ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
}

// TestSimulationNUMALifecycle exercises a multi-socket node end to end:
// placement, per-socket controllers, occupancy, and cross-socket
// traffic accounting.
func TestSimulationNUMALifecycle(t *testing.T) {
	hc := host.DefaultConfig()
	hc.Sockets = 2
	h := newTestHost(t, hc)
	if h.NUMA().Sockets() != 2 {
		t.Fatal("Sockets=2 should build a 2-socket host")
	}
	// Target on socket 0, memory from socket 1: every miss crosses.
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.AllocatorOn(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("target", 2, mlr); err != nil {
		t.Fatal(err)
	}
	baselines := map[string]int{"target": 3}
	for socket := 0; socket < 2; socket++ {
		name := []string{"lb0", "lb1"}[socket]
		w, err := workload.NewLookbusy(h.AllocatorOn(socket))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AddVMOn(socket, name, 2, w); err != nil {
			t.Fatal(err)
		}
		baselines[name] = 3
	}
	m, err := h.Controllers(core.DefaultConfig(), baselines)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sockets(); len(got) != 2 {
		t.Fatalf("controller set covers sockets %v, want one loop per populated socket", got)
	}
	run(t, h, m, 8)
	if s, ok := m.SocketOf("target"); !ok || s != 0 {
		t.Errorf("target on socket %d, want 0", s)
	}
	if s, ok := m.SocketOf("lb1"); !ok || s != 1 {
		t.Errorf("lb1 on socket %d, want 1", s)
	}
	if len(m.Snapshot()) != 3 {
		t.Errorf("snapshot has %d entries, want 3", len(m.Snapshot()))
	}
	if occupancy(m)["target"] == 0 {
		t.Error("target shows no LLC occupancy")
	}
	if got := h.NUMA().RemoteAccesses(0); got == 0 {
		t.Error("remote-homed working set produced no cross-socket accesses")
	}
	if w := m.Ways("target"); w <= 3 {
		t.Errorf("cache-hungry target stuck at %d ways; should have grown", w)
	}
}

func TestSimulationTopologySpec(t *testing.T) {
	nc, err := memsys.ParseNUMA("sockets=2,machine=xeon-d,penalty=150")
	if err != nil {
		t.Fatal(err)
	}
	hc := host.DefaultConfig()
	hc.Mem = nc.Socket
	hc.Sockets = nc.Sockets
	hc.RemotePenalty = nc.RemotePenalty
	hc.MemBytes = nc.MemBytesPerSocket * uint64(nc.Sockets)
	nsys := newTestHost(t, hc).NUMA()
	if nsys.Sockets() != 2 {
		t.Fatal("topology spec should build a 2-socket host")
	}
	if cfg := nsys.Config(); cfg.Socket.Cores != 8 || cfg.RemotePenalty != 150 {
		t.Errorf("topology not applied: %+v", cfg)
	}
	if _, err := memsys.ParseNUMA("sockets=0"); err == nil {
		t.Error("invalid topology spec should be rejected")
	}
}
