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
//	dcat-sim -sockets 2                       # NUMA: one dCat loop per LLC
//	dcat-sim -sockets 2 -target-mem 1         # target's memory on the far socket
//	dcat-sim -topology sockets=2,machine=xeon-d,penalty=150
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	allocpolicy "repro/internal/policy"
	"repro/internal/telemetry"
)

func main() {
	var (
		wl        = flag.String("workload", "mlr", "target workload: mlr|mload|redis|postgres|elasticsearch|spec:<name>")
		wsMB      = flag.Uint64("ws", 8, "working set in MB (mlr/mload)")
		baseline  = flag.Int("baseline", 3, "baseline (contracted) ways per VM")
		neighbors = flag.Int("neighbors", 5, "number of lookbusy neighbour VMs")
		noisy     = flag.Int("noisy", 0, "number of MLOAD-60MB noisy neighbour VMs")
		policy    = flag.String("policy", "fair", "allocation policy: fair|perf")
		allocPol  = flag.String("alloc-policy", "", "pluggable allocation engine: reactive|predictive|lfoc (\"\" = reactive)")
		intervals = flag.Int("intervals", 25, "simulated controller periods")
		seed      = flag.Int64("seed", 1, "simulation seed")
		csvPath   = flag.String("csv", "", "write the ways/IPC timeline as CSV")
		record    = flag.String("record", "", "save the target's access trace to this file")
		sockets   = flag.Int("sockets", 0, "NUMA sockets (0 = single-socket host); neighbours round-robin across sockets")
		penalty   = flag.Uint64("remote-penalty", 0, "cross-socket DRAM penalty in cycles (0 = default when -sockets > 1)")
		topology  = flag.String("topology", "", "memsys topology spec (e.g. sockets=2,machine=xeon-d,penalty=150); overrides -sockets/-remote-penalty")
		targetMem = flag.Int("target-mem", 0, "socket the target's memory is allocated on (mlr/mload; target runs on socket 0)")
	)
	flag.Parse()
	simCfg := dcat.SimConfig{
		Seed:          *seed,
		Sockets:       *sockets,
		RemotePenalty: *penalty,
		Topology:      *topology,
	}
	if err := realMain(simCfg, *wl, *wsMB<<20, *baseline, *neighbors, *noisy, *policy, *allocPol,
		*intervals, *seed, *csvPath, *record, *targetMem); err != nil {
		fmt.Fprintln(os.Stderr, "dcat-sim:", err)
		os.Exit(1)
	}
}

func buildTarget(sim *dcat.Simulation, wl string, ws uint64, seed int64, memSocket int) (dcat.Workload, error) {
	switch {
	case wl == "mlr":
		return sim.NewMLROn(memSocket, ws, seed)
	case wl == "mload":
		return sim.NewMLOADOn(memSocket, ws)
	case wl == "redis":
		return sim.NewRedis(seed)
	case wl == "postgres":
		return sim.NewPostgres(seed)
	case wl == "elasticsearch":
		return sim.NewElasticsearch(seed)
	case strings.HasPrefix(wl, "spec:"):
		return sim.NewSPEC(strings.TrimPrefix(wl, "spec:"), seed)
	case strings.HasPrefix(wl, "trace:"):
		return dcat.ReadTraceFile(strings.TrimPrefix(wl, "trace:"))
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
}

func realMain(simCfg dcat.SimConfig, wl string, ws uint64, baseline, neighbors, noisy int, policy, allocPol string,
	intervals int, seed int64, csvPath, recordPath string, targetMem int) error {
	cfg := dcat.DefaultConfig()
	switch policy {
	case "fair":
		cfg.Policy = dcat.MaxFairness
	case "perf":
		cfg.Policy = dcat.MaxPerformance
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}
	if allocPol != "" {
		factory, err := allocpolicy.New(allocPol)
		if err != nil {
			return err
		}
		cfg.NewPolicy = factory
	}

	sim, err := dcat.NewSimulation(simCfg)
	if err != nil {
		return err
	}
	nsys := sim.Host().NUMA()
	nSockets := nsys.Sockets()
	if targetMem < 0 || targetMem >= nSockets {
		return fmt.Errorf("-target-mem %d out of range for %d socket(s)", targetMem, nSockets)
	}
	target, err := buildTarget(sim, wl, ws, seed, targetMem)
	if err != nil {
		return err
	}
	var recorder *dcat.TraceRecorder
	if recordPath != "" {
		recorder, err = dcat.NewTraceRecorder(target)
		if err != nil {
			return err
		}
		target = recorder
	}
	if err := sim.AddVM("target", 2, target); err != nil {
		return err
	}
	baselines := map[string]int{"target": baseline}
	// Neighbours round-robin across sockets, each touching its own
	// socket's memory, so every LLC has a population to manage.
	for i := 0; i < noisy; i++ {
		name := fmt.Sprintf("noisy%d", i+1)
		socket := i % nSockets
		w, err := sim.NewMLOADOn(socket, 60<<20)
		if err != nil {
			return err
		}
		if err := sim.AddVMOn(socket, name, 2, w); err != nil {
			return err
		}
		baselines[name] = baseline
	}
	for i := 0; i < neighbors; i++ {
		name := fmt.Sprintf("lb%d", i+1)
		socket := i % nSockets
		w, err := sim.NewLookbusyOn(socket)
		if err != nil {
			return err
		}
		if err := sim.AddVMOn(socket, name, 2, w); err != nil {
			return err
		}
		baselines[name] = baseline
	}
	if err := sim.Start(cfg, baselines); err != nil {
		return err
	}

	rec := telemetry.NewRecorder()
	fmt.Printf("%-4s %-10s %-10s %-5s %-8s %-9s %-10s\n", "t", "vm", "state", "ways", "IPC", "normIPC", "LLC(MB)")
	for i := 1; i <= intervals; i++ {
		if err := sim.Step(); err != nil {
			return err
		}
		occ := sim.Occupancy()
		for _, st := range sim.Snapshot() {
			if st.Name == "target" || strings.HasPrefix(st.Name, "noisy") {
				fmt.Printf("%-4d %-10s %-10s %-5d %-8.4f %-9.2f %-10.2f\n",
					i, st.Name, st.State, st.Ways, st.IPC, st.NormIPC,
					float64(occ[st.Name])/(1<<20))
			}
			rec.Record("ways-"+st.Name, float64(i), float64(st.Ways))
			rec.Record("normipc-"+st.Name, float64(i), st.NormIPC)
		}
	}
	fmt.Println()
	fmt.Println("final allocation:")
	for _, st := range sim.Snapshot() {
		suffix := ""
		if nSockets > 1 {
			if vm, ok := sim.Host().VM(st.Name); ok {
				suffix = fmt.Sprintf(" [socket %d]", vm.Socket)
			}
		}
		fmt.Printf("  %-10s %-10s %2d ways (baseline %d)%s\n", st.Name, st.State, st.Ways, st.Baseline, suffix)
	}
	if nSockets > 1 {
		fmt.Println("cross-socket traffic:")
		for s := 0; s < nSockets; s++ {
			fmt.Printf("  socket %d: %d remote accesses, %d penalty cycles\n",
				s, nsys.RemoteAccesses(s), nsys.RemotePenaltyCycles(s))
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("timeline written to %s\n", csvPath)
	}
	if recorder != nil {
		tr, err := recorder.Trace()
		if err != nil {
			return err
		}
		f, err := os.Create(recordPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := tr.WriteTo(f); err != nil {
			return err
		}
		fmt.Printf("trace of %d accesses written to %s\n", tr.Len(), recordPath)
	}
	return nil
}
