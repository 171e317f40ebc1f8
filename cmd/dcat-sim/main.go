// Command dcat-sim runs one multi-tenant scenario under the dCat
// controller and prints a per-interval view of every tenant's state,
// allocation, and normalized IPC — the interactive counterpart of the
// paper's timeline figures.
//
//	dcat-sim                                  # MLR-8MB vs 5 lookbusy
//	dcat-sim -workload mload -ws 60           # watch Streaming detection
//	dcat-sim -workload redis -noisy 2
//	dcat-sim -workload spec:omnetpp -policy perf
//	dcat-sim -alloc-policy predictive         # phase-predictive allocation engine
//	dcat-sim -csv timeline.csv
//	dcat-sim -record redis.trace -workload redis
//	dcat-sim -workload trace:redis.trace      # replay a recorded target
//	dcat-sim -sockets 2                       # NUMA: one dCat loop per LLC
//	dcat-sim -sockets 2 -target-mem 1         # target's memory on the far socket
//	dcat-sim -topology sockets=2,machine=xeon-d,penalty=150
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/memsys"
	allocpolicy "repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// options is everything the command line selects.
type options struct {
	workload   string
	ws         uint64 // bytes
	baseline   int
	neighbors  int
	noisy      int
	policy     string
	allocPol   string
	intervals  int
	seed       int64
	csvPath    string
	recordPath string
	sockets    int
	penalty    uint64
	topology   string
	targetMem  int
}

// parseFlags declares every dcat-sim flag on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	var wsMB uint64
	fs.StringVar(&o.workload, "workload", "mlr", "target workload: mlr|mload|redis|postgres|elasticsearch|spec:<name>|trace:<file>")
	fs.Uint64Var(&wsMB, "ws", 8, "working set in MB (mlr/mload)")
	fs.IntVar(&o.baseline, "baseline", 3, "baseline (contracted) ways per VM")
	fs.IntVar(&o.neighbors, "neighbors", 5, "number of lookbusy neighbour VMs")
	fs.IntVar(&o.noisy, "noisy", 0, "number of MLOAD-60MB noisy neighbour VMs")
	fs.StringVar(&o.policy, "policy", "fair", "allocation policy: fair|perf")
	fs.StringVar(&o.allocPol, "alloc-policy", "", "pluggable allocation engine: reactive|predictive|lfoc (\"\" = reactive)")
	fs.IntVar(&o.intervals, "intervals", 25, "simulated controller periods")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.StringVar(&o.csvPath, "csv", "", "write the ways/IPC timeline as CSV")
	fs.StringVar(&o.recordPath, "record", "", "save the target's access trace to this file")
	fs.IntVar(&o.sockets, "sockets", 0, "NUMA sockets (0 = single-socket host); neighbours round-robin across sockets")
	fs.Uint64Var(&o.penalty, "remote-penalty", 0, "cross-socket DRAM penalty in cycles (0 = default when -sockets > 1)")
	fs.StringVar(&o.topology, "topology", "", "memsys topology spec (e.g. sockets=2,machine=xeon-d,penalty=150); overrides -sockets/-remote-penalty")
	fs.IntVar(&o.targetMem, "target-mem", 0, "socket the target's memory is allocated on (not with trace:; target runs on socket 0)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.ws = wsMB << 20
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcat-sim:", err)
		os.Exit(1)
	}
}

// newHost builds the simulated machine: the paper's Xeon E5 socket,
// -sockets of them, or the -topology spec wholesale.
func newHost(o options) (*host.Host, error) {
	hc := host.DefaultConfig()
	hc.Seed = o.seed
	hc.Sockets = o.sockets
	hc.RemotePenalty = o.penalty
	if o.topology != "" {
		nc, err := memsys.ParseNUMA(o.topology)
		if err != nil {
			return nil, err
		}
		hc.Mem = nc.Socket
		hc.Sockets = nc.Sockets
		hc.RemotePenalty = nc.RemotePenalty
		hc.MemBytes = nc.MemBytesPerSocket * uint64(nc.Sockets)
	}
	return host.New(hc)
}

// buildTarget builds the target workload; every synthetic one draws its
// frames from socket memSocket's memory. A recorded trace carries its
// own addresses, so it has no memory to place.
func buildTarget(h *host.Host, wl string, ws uint64, seed int64, memSocket int) (workload.Generator, error) {
	if path, ok := strings.CutPrefix(wl, "trace:"); ok {
		if memSocket != 0 {
			return nil, fmt.Errorf("-target-mem does not apply to a recorded trace")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadTrace(f)
	}
	alloc := h.AllocatorOn(memSocket)
	switch {
	case wl == "mlr":
		return workload.NewMLR(ws, addr.PageSize4K, alloc, seed)
	case wl == "mload":
		return workload.NewMLOAD(ws, addr.PageSize4K, alloc)
	case wl == "redis":
		return workload.NewRedis(alloc, seed)
	case wl == "postgres":
		return workload.NewPostgres(alloc, seed)
	case wl == "elasticsearch":
		return workload.NewElasticsearch(alloc, seed)
	case strings.HasPrefix(wl, "spec:"):
		p, err := workload.ProfileByName(strings.TrimPrefix(wl, "spec:"))
		if err != nil {
			return nil, err
		}
		return workload.NewSpec(p, alloc, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
}

func run(w io.Writer, o options) error {
	cfg := core.DefaultConfig()
	switch o.policy {
	case "fair":
		cfg.Policy = core.MaxFairness
	case "perf":
		cfg.Policy = core.MaxPerformance
	default:
		return fmt.Errorf("unknown policy %q", o.policy)
	}
	if o.allocPol != "" {
		factory, err := allocpolicy.New(o.allocPol)
		if err != nil {
			return err
		}
		cfg.NewPolicy = factory
	}

	h, err := newHost(o)
	if err != nil {
		return err
	}
	nsys := h.NUMA()
	nSockets := nsys.Sockets()
	if o.targetMem < 0 || o.targetMem >= nSockets {
		return fmt.Errorf("-target-mem %d out of range for %d socket(s)", o.targetMem, nSockets)
	}
	target, err := buildTarget(h, o.workload, o.ws, o.seed, o.targetMem)
	if err != nil {
		return err
	}
	var recorder *workload.Recorder
	if o.recordPath != "" {
		recorder, err = workload.NewRecorder(target)
		if err != nil {
			return err
		}
		target = recorder
	}
	if _, err := h.AddVM("target", 2, target); err != nil {
		return err
	}
	baselines := map[string]int{"target": o.baseline}
	// Neighbours round-robin across sockets, each touching its own
	// socket's memory, so every LLC has a population to manage.
	for i := 0; i < o.noisy; i++ {
		name := fmt.Sprintf("noisy%d", i+1)
		socket := i % nSockets
		gen, err := workload.NewMLOAD(60<<20, addr.PageSize4K, h.AllocatorOn(socket))
		if err != nil {
			return err
		}
		if _, err := h.AddVMOn(socket, name, 2, gen); err != nil {
			return err
		}
		baselines[name] = o.baseline
	}
	for i := 0; i < o.neighbors; i++ {
		name := fmt.Sprintf("lb%d", i+1)
		socket := i % nSockets
		gen, err := workload.NewLookbusy(h.AllocatorOn(socket))
		if err != nil {
			return err
		}
		if _, err := h.AddVMOn(socket, name, 2, gen); err != nil {
			return err
		}
		baselines[name] = o.baseline
	}
	ctl, err := h.Controllers(cfg, baselines)
	if err != nil {
		return err
	}

	rec := telemetry.NewRecorder()
	fmt.Fprintf(w, "%-4s %-10s %-10s %-5s %-8s %-9s %-10s\n", "t", "vm", "state", "ways", "IPC", "normIPC", "LLC(MB)")
	for i := 1; i <= o.intervals; i++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			return err
		}
		// The loops' CMT views of their sockets' LLCs; the simulated
		// backend always monitors.
		occ, _ := ctl.Occupancy()
		for _, st := range ctl.Snapshot() {
			if st.Name == "target" || strings.HasPrefix(st.Name, "noisy") {
				fmt.Fprintf(w, "%-4d %-10s %-10s %-5d %-8.4f %-9.2f %-10.2f\n",
					i, st.Name, st.State, st.Ways, st.IPC, st.NormIPC,
					float64(occ[st.Name])/(1<<20))
			}
			rec.Record("ways-"+st.Name, float64(i), float64(st.Ways))
			rec.Record("normipc-"+st.Name, float64(i), st.NormIPC)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "final allocation:")
	for _, st := range ctl.Snapshot() {
		suffix := ""
		if nSockets > 1 {
			if vm, ok := h.VM(st.Name); ok {
				suffix = fmt.Sprintf(" [socket %d]", vm.Socket)
			}
		}
		fmt.Fprintf(w, "  %-10s %-10s %2d ways (baseline %d)%s\n", st.Name, st.State, st.Ways, st.Baseline, suffix)
	}
	if nSockets > 1 {
		fmt.Fprintln(w, "cross-socket traffic:")
		for s := 0; s < nSockets; s++ {
			fmt.Fprintf(w, "  socket %d: %d remote accesses, %d penalty cycles\n",
				s, nsys.RemoteAccesses(s), nsys.RemotePenaltyCycles(s))
		}
	}
	if o.csvPath != "" {
		if err := writeFile(o.csvPath, rec.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline written to %s\n", o.csvPath)
	}
	if recorder != nil {
		tr, err := recorder.Trace()
		if err != nil {
			return err
		}
		if err := writeFile(o.recordPath, func(f io.Writer) error {
			_, err := tr.WriteTo(f)
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace of %d accesses written to %s\n", tr.Len(), o.recordPath)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
