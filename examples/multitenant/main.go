// Multitenant: a realistic IaaS socket under dCat.
//
// Six tenants share the simulated Xeon E5: a Redis cache, a PostgreSQL
// database, one SPEC CPU2006 job (omnetpp), a streaming batch job
// (MLOAD-60MB), and two CPU-bound services. Each contracts 3 cache
// ways. The example runs both §3.5 allocation policies and prints the
// final partitioning plus each tenant's normalized IPC, and writes the
// full timeline to a CSV.
//
//	go run ./examples/multitenant [-policy fair|perf] [-csv timeline.csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func buildMix(h *host.Host) (map[string]int, error) {
	redis, err := workload.NewRedis(h.Allocator(), 1)
	if err != nil {
		return nil, err
	}
	pg, err := workload.NewPostgres(h.Allocator(), 2)
	if err != nil {
		return nil, err
	}
	omnetpp, err := workload.ProfileByName("omnetpp")
	if err != nil {
		return nil, err
	}
	spec, err := workload.NewSpec(omnetpp, h.Allocator(), 3)
	if err != nil {
		return nil, err
	}
	batch, err := workload.NewMLOAD(60<<20, addr.PageSize4K, h.Allocator())
	if err != nil {
		return nil, err
	}
	baselines := map[string]int{}
	for _, t := range []struct {
		name string
		w    workload.Generator
	}{
		{"redis", redis}, {"postgres", pg}, {"omnetpp", spec}, {"batch", batch},
	} {
		if _, err := h.AddVM(t.name, 2, t.w); err != nil {
			return nil, err
		}
		baselines[t.name] = 3
	}
	for i := 1; i <= 2; i++ {
		lb, err := workload.NewLookbusy(h.Allocator())
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("svc%d", i)
		if _, err := h.AddVM(name, 2, lb); err != nil {
			return nil, err
		}
		baselines[name] = 3
	}
	return baselines, nil
}

func runPolicy(policy core.Policy, intervals int, rec *telemetry.Recorder) ([]core.Status, error) {
	hc := host.DefaultConfig()
	hc.Seed = 11
	h, err := host.New(hc)
	if err != nil {
		return nil, err
	}
	baselines, err := buildMix(h)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Policy = policy
	ctl, err := h.Controllers(cfg, baselines)
	if err != nil {
		return nil, err
	}
	for t := 1; t <= intervals; t++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			return nil, err
		}
		if rec != nil {
			for _, st := range ctl.Snapshot() {
				rec.Record(policy.String()+"/ways-"+st.Name, float64(t), float64(st.Ways))
				rec.Record(policy.String()+"/normipc-"+st.Name, float64(t), st.NormIPC)
			}
		}
	}
	return ctl.Snapshot(), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("multitenant: ")
	var (
		policyFlag = flag.String("policy", "both", "fair|perf|both")
		csvPath    = flag.String("csv", "", "write the ways/IPC timeline as CSV")
		intervals  = flag.Int("intervals", 30, "controller periods to simulate")
	)
	flag.Parse()

	var policies []core.Policy
	switch *policyFlag {
	case "fair":
		policies = []core.Policy{core.MaxFairness}
	case "perf":
		policies = []core.Policy{core.MaxPerformance}
	case "both":
		policies = []core.Policy{core.MaxFairness, core.MaxPerformance}
	default:
		log.Fatalf("unknown policy %q", *policyFlag)
	}

	rec := telemetry.NewRecorder()
	for _, pol := range policies {
		snap, err := runPolicy(pol, *intervals, rec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final allocation under %s:\n", pol)
		total := 0
		for _, st := range snap {
			fmt.Printf("  %-9s %-10s %2d ways (baseline %d)  normIPC %.2f\n",
				st.Name, st.State, st.Ways, st.Baseline, st.NormIPC)
			total += st.Ways
		}
		fmt.Printf("  %d of 20 ways allocated; the rest sit in the free pool\n\n", total)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s\n", *csvPath)
	}
}
