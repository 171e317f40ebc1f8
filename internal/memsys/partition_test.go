package memsys_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/bits"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/perf"
	"repro/internal/workload"
)

// hostRun is everything a run of a simulated host can report: the
// partition count must change none of it.
type hostRun struct {
	Totals    map[string]host.IntervalMetrics
	Counters  []uint64
	L1, LLC   []string
	Occupancy []map[uint16]int
	Remote    []uint64
}

func snapshot(h *host.Host) hostRun {
	n := h.NUMA()
	var r hostRun
	r.Totals = make(map[string]host.IntervalMetrics)
	for _, vm := range h.VMs() {
		r.Totals[vm.Name] = vm.Total()
	}
	for c := 0; c < n.TotalCores(); c++ {
		for e := perf.Event(0); int(e) < perf.NumEvents; e++ {
			r.Counters = append(r.Counters, n.Counters().ReadCounter(c, e))
		}
	}
	for s := 0; s < n.Sockets(); s++ {
		sys := n.Socket(s)
		r.LLC = append(r.LLC, fmt.Sprintf("%+v", sys.LLC().Stats()))
		r.Occupancy = append(r.Occupancy, sys.LLC().OccupancyByCore())
		for c := 0; c < sys.Config().Cores; c++ {
			r.L1 = append(r.L1, fmt.Sprintf("%+v", sys.L1(c).Stats()))
		}
		r.Remote = append(r.Remote, n.RemoteAccesses(s), n.RemotePenaltyCycles(s))
	}
	return r
}

// invarianceHost builds one of the property's hosts, runs it, and
// returns what it reports.
type invarianceHost func(t *testing.T) hostRun

func addVM(t *testing.T, h *host.Host, socket int, name string, gen workload.Generator, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVMOn(socket, name, 1, gen); err != nil {
		t.Fatal(err)
	}
}

// mix places a memory-bound, a streaming, a cache-friendly and a
// compute-bound tenant on one socket, drawing memory from alloc.
func mix(t *testing.T, h *host.Host, socket int, alloc addr.FrameAllocator, prefix string) {
	t.Helper()
	mlr, err := workload.NewMLR(12<<20, addr.PageSize4K, alloc, int64(socket)+1)
	addVM(t, h, socket, prefix+"mlr", mlr, err)
	stream, err := workload.NewMLOAD(30<<20, addr.PageSize4K, alloc)
	addVM(t, h, socket, prefix+"mload", stream, err)
	p, err := workload.ProfileByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	p.WSS = 32 << 20
	spec, err := workload.NewSpec(p, alloc, 7)
	addVM(t, h, socket, prefix+"spec", spec, err)
	lb, err := workload.NewLookbusy(alloc)
	addVM(t, h, socket, prefix+"lookbusy", lb, err)
	addVM(t, h, socket, prefix+"idle", workload.Idle{}, nil)
}

func newHost(t *testing.T, mem memsys.Config, sockets int) *host.Host {
	t.Helper()
	cfg := host.DefaultConfig()
	cfg.Mem = mem
	cfg.Sockets = sockets
	cfg.CyclesPerInterval = 600_000
	h, err := host.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

var invarianceHosts = []struct {
	name   string
	remote bool // some access pays the remote penalty
	run    invarianceHost
}{
	{"xeon-e5", false, func(t *testing.T) hostRun {
		h := newHost(t, memsys.XeonE5(), 1)
		mix(t, h, 0, h.Allocator(), "")
		h.RunIntervals(4, nil)
		return snapshot(h)
	}},
	{"xeon-d", false, func(t *testing.T) hostRun {
		h := newHost(t, memsys.XeonD(), 1)
		mix(t, h, 0, h.Allocator(), "")
		h.RunIntervals(4, nil)
		return snapshot(h)
	}},
	{"two-sockets", true, func(t *testing.T) hostRun {
		h := newHost(t, memsys.XeonD(), 2)    // default remote penalty
		mix(t, h, 0, h.AllocatorOn(1), "s0-") // every DRAM access remote
		mix(t, h, 1, h.AllocatorOn(1), "s1-")
		h.RunIntervals(3, nil)
		return snapshot(h)
	}},
	{"churn", true, func(t *testing.T) hostRun {
		h := newHost(t, memsys.XeonD(), 2)
		mix(t, h, 0, h.AllocatorOn(0), "a-")
		n := h.NUMA()
		steps := []func(){
			func() {
				mlr, err := workload.NewMLR(6<<20, addr.PageSize4K, h.AllocatorOn(1), 9)
				addVM(t, h, 1, "late", mlr, err)
			},
			func() {
				if _, err := h.MigrateVM("a-mlr", 1); err != nil {
					t.Fatal(err)
				}
				vm, _ := h.VM("a-mlr")
				if err := n.SetMask(vm.Cores[0], bits.MustCBM(0, 3)); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				n.Socket(0).FlushWays(bits.MustCBM(4, 4))
				if err := h.RemoveVM("a-mload"); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				vm, _ := h.VM("a-spec")
				if err := n.SetMask(vm.Cores[0], bits.MustCBM(8, 4)); err != nil {
					t.Fatal(err)
				}
				n.Socket(1).FlushWays(bits.MustCBM(0, 2))
			},
		}
		for _, step := range steps {
			h.RunInterval()
			step()
		}
		h.RunInterval()
		return snapshot(h)
	}},
}

// TestPartitionInvariance is the property behind Host.RunInterval's
// batch replay: forcing 1, 2 or 4 set classes per socket, with every
// batch partitioned, changes no total, counter, cache statistic,
// occupancy or remote count — on one-socket hosts of both presets, a
// two-socket host paying the remote penalty, and a host whose tenants
// arrive, migrate, leave and get new masks and way flushes between
// intervals.
func TestPartitionInvariance(t *testing.T) {
	defer memsys.ForcePartitions(0)
	for _, hc := range invarianceHosts {
		t.Run(hc.name, func(t *testing.T) {
			memsys.ForcePartitions(0)
			want := hc.run(t)
			for name, m := range want.Totals {
				if m.Instructions == 0 {
					t.Fatalf("VM %s never ran", name)
				}
			}
			remote := false
			for _, v := range want.Remote {
				remote = remote || v > 0
			}
			if remote != hc.remote {
				t.Fatalf("remote penalty paid: %v, want %v", remote, hc.remote)
			}
			for _, p := range []int{1, 2, 4} {
				memsys.ForcePartitions(p)
				if got := hc.run(t); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d partitions: %+v\nwant %+v", p, got, want)
				}
			}
		})
	}
}

// TestPartitionInvarianceConcurrentHosts runs two copies of every
// invariance host at once, as parallel experiments do: their batches
// compete for the one helper pool, so some find every helper busy and
// replay alone. Each must still report what it reports run by itself.
func TestPartitionInvarianceConcurrentHosts(t *testing.T) {
	want := make(map[string]hostRun)
	for _, hc := range invarianceHosts {
		want[hc.name] = hc.run(t)
	}
	for _, hc := range invarianceHosts {
		for copy := 0; copy < 2; copy++ {
			t.Run(fmt.Sprintf("%s#%d", hc.name, copy), func(t *testing.T) {
				t.Parallel()
				if got := hc.run(t); !reflect.DeepEqual(got, want[hc.name]) {
					t.Errorf("concurrent run: %+v\nwant %+v", got, want[hc.name])
				}
			})
		}
	}
}
