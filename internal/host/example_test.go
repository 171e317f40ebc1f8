package host_test

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/workload"
)

// Example shows the minimal dCat loop: a cache-hungry tenant and a
// CPU-bound neighbour share a simulated socket; after a few controller
// periods the neighbour has donated down to the 1-way minimum and the
// tenant has grown past its 3-way contracted baseline.
func Example() {
	h, err := host.New(host.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Workloads draw their frames from the host's fragmented memory.
	tenant, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 42) // 8 MB of random reads
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
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{
		"tenant":   3,
		"neighbor": 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			log.Fatal(err)
		}
	}
	for _, st := range ctl.Snapshot() {
		switch st.Name {
		case "neighbor":
			fmt.Printf("neighbor: %s at %d way(s)\n", st.State, st.Ways)
		case "tenant":
			fmt.Printf("tenant grew past its baseline: %v\n", st.Ways > 3)
		}
	}
	// Output:
	// tenant grew past its baseline: true
	// neighbor: Donor at 1 way(s)
}
