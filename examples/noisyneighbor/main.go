// Noisy neighbour: the paper's §2 motivation, end to end.
//
// A latency-sensitive tenant (MLR-8MB) shares a socket with two
// streaming noisy neighbours (MLOAD-60MB). The example measures the
// tenant's average data-access latency under three configurations:
//
//	shared   — no CAT: the streamers flush the tenant's cache
//	static   — CAT with fixed baseline partitions: isolated but starved
//	dcat     — dynamic management: isolated AND fed spare capacity
//
//	go run ./examples/noisyneighbor
package main

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/workload"
)

const intervals = 18

// buildSocket assembles the tenant + 2 noisy + 2 polite VM mix.
func buildSocket() (*host.Host, map[string]int, error) {
	hc := host.DefaultConfig()
	hc.Seed = 7
	h, err := host.New(hc)
	if err != nil {
		return nil, nil, err
	}
	tenant, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 7)
	if err != nil {
		return nil, nil, err
	}
	if _, err := h.AddVM("tenant", 2, tenant); err != nil {
		return nil, nil, err
	}
	baselines := map[string]int{"tenant": 3}
	for i := 1; i <= 2; i++ {
		noisy, err := workload.NewMLOAD(60<<20, addr.PageSize4K, h.Allocator())
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("noisy%d", i)
		if _, err := h.AddVM(name, 2, noisy); err != nil {
			return nil, nil, err
		}
		baselines[name] = 3
	}
	for i := 1; i <= 2; i++ {
		polite, err := workload.NewLookbusy(h.Allocator())
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("polite%d", i)
		if _, err := h.AddVM(name, 2, polite); err != nil {
			return nil, nil, err
		}
		baselines[name] = 3
	}
	return h, baselines, nil
}

// tenantLatency returns the tenant's final-interval average access
// latency in cycles.
func tenantLatency(h *host.Host) float64 {
	vm, _ := h.VM("tenant")
	return vm.Last().AvgAccessLatency()
}

func runShared() (float64, error) {
	h, _, err := buildSocket()
	if err != nil {
		return 0, err
	}
	// No controller, no masks: a fully shared LLC.
	for i := 0; i < intervals; i++ {
		h.RunInterval()
	}
	return tenantLatency(h), nil
}

func runManaged(dynamic bool) (float64, error) {
	h, baselines, err := buildSocket()
	if err != nil {
		return 0, err
	}
	ctl, err := h.Controllers(core.DefaultConfig(), baselines)
	if err != nil {
		return 0, err
	}
	for i := 0; i < intervals; i++ {
		h.RunInterval()
		// Static CAT: the baselines Controllers installed stay put
		// because the controller simply never runs.
		if dynamic {
			if err := ctl.Tick(); err != nil {
				return 0, err
			}
		}
	}
	return tenantLatency(h), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("noisyneighbor: ")

	shared, err := runShared()
	if err != nil {
		log.Fatal(err)
	}
	static, err := runManaged(false)
	if err != nil {
		log.Fatal(err)
	}
	dynamic, err := runManaged(true)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("tenant average data-access latency (cycles/access):")
	fmt.Printf("  shared LLC             %7.1f\n", shared)
	fmt.Printf("  static CAT (3 ways)    %7.1f\n", static)
	fmt.Printf("  dCat                   %7.1f\n", dynamic)
	fmt.Println()
	fmt.Printf("dCat is %.1fx faster than the shared cache and %.1fx faster than static CAT —\n",
		shared/dynamic, static/dynamic)
	fmt.Println("isolation from the streamers plus the spare ways the polite neighbours donated.")
}
