// Quickstart: the smallest useful dCat setup.
//
// One cache-hungry tenant (MLR with an 8 MB working set) shares a
// simulated Xeon E5 socket with one lookbusy neighbour. Both hold a
// contracted baseline of 3 cache ways. Watch dCat classify the
// neighbour as a Donor, shrink it to the 1-way minimum, and grow the
// tenant until its working set fits.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	h, err := host.New(host.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Workloads draw their memory from the host's (fragmented)
	// physical memory, so they are built from its frame allocator.
	tenant, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 42)
	if err != nil {
		log.Fatal(err)
	}
	neighbor, err := workload.NewLookbusy(h.Allocator())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := h.AddVM("tenant", 2, tenant); err != nil {
		log.Fatal(err)
	}
	if _, err := h.AddVM("neighbor", 2, neighbor); err != nil {
		log.Fatal(err)
	}

	// Put the host under dCat with the paper's default thresholds and
	// a 3-way contracted baseline for each VM.
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{
		"tenant":   3,
		"neighbor": 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("t   vm        state      ways  normIPC")
	for t := 1; t <= 15; t++ {
		// One controller period: every VM runs, then dCat re-partitions.
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			log.Fatal(err)
		}
		for _, st := range ctl.Snapshot() {
			fmt.Printf("%-3d %-9s %-10s %-5d %.2f\n", t, st.Name, st.State, st.Ways, st.NormIPC)
		}
	}

	fmt.Println()
	for _, st := range ctl.Snapshot() {
		fmt.Printf("%s finished as %s with %d ways (baseline %d), running at %.2fx its baseline IPC\n",
			st.Name, st.State, st.Ways, st.Baseline, st.NormIPC)
	}
}
