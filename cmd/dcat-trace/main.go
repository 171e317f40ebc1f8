// Command dcat-trace has two personalities:
//
// With a subcommand it is the fleet flight recorder's CLI, querying a
// dcat-coord run with -recorder-dir:
//
//	dcat-trace tail -coord http://coord:9400
//	dcat-trace query -coord http://coord:9400 -agent host-a -kind WayReclaim -n 50
//	dcat-trace query -coord http://coord:9400 -kind PlacementExecuted
//	dcat-trace explain -coord http://coord:9400 web
//	dcat-trace causality -coord http://coord:9400 <trace-id|vm>
//	dcat-trace top -coord http://coord:9400
//	dcat-trace placement -coord http://coord:9400
//
// Without one it inspects a recorded access trace, the format
// workload.ReadTrace reads and dcat-sim -record writes: its footprint,
// and — by running the trace through a UCP-style shadow-tag monitor
// against the Xeon E5 LLC geometry — the expected hit rate at every
// way count, with a suggested contracted baseline for a target miss
// rate.
//
//	dcat-trace -target-miss 0.03 redis.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/memsys"
	"repro/internal/ucp"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		if run, ok := fleetCommands[os.Args[1]]; ok {
			if err := run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "dcat-trace:", err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		targetMiss = flag.Float64("target-miss", 0.03, "miss-rate target for the baseline suggestion (the paper's llc_miss_rate_thr)")
		sample     = flag.Int("sample", 8, "shadow-tag set sampling interval")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dcat-trace [flags] <trace-file>")
		os.Exit(2)
	}
	if err := realMain(flag.Arg(0), *targetMiss, *sample); err != nil {
		fmt.Fprintln(os.Stderr, "dcat-trace:", err)
		os.Exit(1)
	}
}

func realMain(path string, targetMiss float64, sample int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.ReadTrace(f)
	if err != nil {
		return err
	}
	p := tr.Params()
	fmt.Printf("trace:    %s\n", tr.Name())
	fmt.Printf("accesses: %d\n", tr.Len())
	fmt.Printf("params:   %.3f accesses/instr, MLP %.1f, base CPI %.2f\n",
		p.AccessesPerInstr, p.MLP, p.BaseCPI)

	// Footprint: distinct lines.
	mem := memsys.XeonE5()
	sets := mem.LLC.Sets()
	distinct := map[uint64]struct{}{}
	mon, err := ucp.NewMonitor(sets, mem.LLC.Ways, sample)
	if err != nil {
		return err
	}
	for i := 0; i < tr.Len(); i++ {
		l := tr.NextLine()
		distinct[l] = struct{}{}
		mon.Observe(l)
	}
	fmt.Printf("footprint: %d lines (%.2f MB)\n", len(distinct), float64(len(distinct))*64/(1<<20))

	curve := mon.MissCurve()
	total := float64(curve[0])
	if total == 0 {
		return fmt.Errorf("trace too sparse for the %d-set sample; lower -sample", sample)
	}
	// Misses remaining at the full associativity are compulsory (or
	// beyond-capacity streaming): judge allocations by their *excess*
	// miss rate over that floor, which is what capacity can fix.
	floor := float64(curve[mem.LLC.Ways])
	capacityMisses := total - floor
	wayMB := float64(mem.WayBytes()) / (1 << 20)
	fmt.Printf("\nutility curve (Xeon E5 geometry, %.2f MB/way, 1-in-%d set sample):\n", wayMB, sample)
	fmt.Printf("%-6s %-10s %-12s %-10s\n", "ways", "miss rate", "excess miss", "capacity")
	suggestion := 0
	for w := 1; w <= mem.LLC.Ways; w++ {
		miss := float64(curve[w]) / total
		excess := 0.0
		if capacityMisses > 0 {
			excess = (float64(curve[w]) - floor) / total
		}
		fmt.Printf("%-6d %-10.3f %-12.3f %-10.1f\n", w, miss, excess, float64(w)*wayMB)
		if suggestion == 0 && excess <= targetMiss {
			suggestion = w
		}
	}
	if floor/total > 0.5 {
		// Most misses survive even the full associativity: either a
		// true streamer or a trace too short to show its reuse. A
		// baseline suggestion would be meaningless either way.
		suggestion = 0
	}
	if suggestion > 0 {
		fmt.Printf("\nsuggested baseline: %d ways (%.1f MB) reaches excess miss rate <= %.0f%%\n",
			suggestion, float64(suggestion)*wayMB, targetMiss*100)
	} else {
		fmt.Printf("\nno useful allocation: %.0f%% of misses persist at full associativity — a streaming"+
			" pattern (dCat would classify it Streaming) or a trace too short to show reuse\n",
			floor/total*100)
	}
	return nil
}
