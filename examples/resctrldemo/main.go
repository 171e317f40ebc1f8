// Resctrldemo: the hardware control path, without the hardware.
//
// dCat on a real machine drives the Linux resctrl filesystem: one
// directory per class of service, a `schemata` file holding the L3
// capacity bitmask, and a `cpus_list` binding cores. This example
// builds a mock resctrl tree in a temp directory, points the controller
// at it, and prints the schemata files after every controller period so
// you can see exactly what would be written to /sys/fs/resctrl.
//
// The workload side is simulated (an MLR tenant and an idle tenant that
// wakes up halfway through, forcing a Reclaim), but the bytes written
// are the real interface.
//
//	go run ./examples/resctrldemo
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/addr"
	"repro/internal/bits"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/resctrl"
	"repro/internal/workload"
)

// mirror fans every CAT operation out to two backends, primary first
// (its errors abort). The two must agree on the way count.
type mirror struct {
	primary, secondary cat.Backend
}

func newMirror(primary, secondary cat.Backend) (*mirror, error) {
	if p, s := primary.TotalWays(), secondary.TotalWays(); p != s {
		return nil, fmt.Errorf("backends disagree on ways: %d vs %d", p, s)
	}
	return &mirror{primary: primary, secondary: secondary}, nil
}

func (m *mirror) TotalWays() int { return m.primary.TotalWays() }

func (m *mirror) Apply(cos int, mask bits.CBM, cores []int) error {
	if err := m.primary.Apply(cos, mask, cores); err != nil {
		return err
	}
	return m.secondary.Apply(cos, mask, cores)
}

func (m *mirror) FlushWays(mask bits.CBM) error {
	for _, b := range []cat.Backend{m.primary, m.secondary} {
		if f, ok := b.(cat.WayFlusher); ok {
			if err := f.FlushWays(mask); err != nil {
				return err
			}
		}
	}
	return nil
}

// mirroredLoop puts every VM on h under one dCat loop whose CAT writes
// go to the resctrl tree at dir and to h's socket-0 LLC.
func mirroredLoop(h *host.Host, dir string, baseline int) (*core.MultiController, error) {
	rc, err := resctrl.NewBackend(dir)
	if err != nil {
		return nil, err
	}
	sim, err := h.CATBackend(0)
	if err != nil {
		return nil, err
	}
	backend, err := newMirror(rc, sim)
	if err != nil {
		return nil, err
	}
	mgr, err := cat.NewManager(backend)
	if err != nil {
		return nil, err
	}
	var targets []core.Target
	for _, vm := range h.VMs() {
		targets = append(targets, core.Target{Name: vm.Name, Cores: vm.Cores, BaselineWays: baseline})
	}
	return core.NewMulti(core.DefaultConfig(), h.Counters(),
		[]core.SocketSpec{{Socket: 0, Mgr: mgr, Targets: targets}})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("resctrldemo: ")

	dir, err := os.MkdirTemp("", "resctrl-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A 20-way, 16-COS, 18-CPU socket — the paper's Xeon E5.
	if err := resctrl.CreateMockTree(dir, 20, 16, 18); err != nil {
		log.Fatal(err)
	}

	hc := host.DefaultConfig()
	hc.Seed = 5
	h, err := host.New(hc)
	if err != nil {
		log.Fatal(err)
	}
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 5)
	if err != nil {
		log.Fatal(err)
	}
	// The second tenant sleeps for 8 intervals, then starts its own
	// cache-hungry phase: watch its Reclaim pull ways back.
	lateMLR, err := workload.NewMLR(6<<20, addr.PageSize4K, h.Allocator(), 6)
	if err != nil {
		log.Fatal(err)
	}
	late, err := workload.NewPhased("late-riser",
		workload.Stage{Gen: workload.Idle{}, Intervals: 8},
		workload.Stage{Gen: lateMLR})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := h.AddVM("steady", 2, mlr); err != nil {
		log.Fatal(err)
	}
	if _, err := h.AddVM("late", 2, late); err != nil {
		log.Fatal(err)
	}
	// Mirror every schemata write into the simulator so the tenants'
	// behaviour actually responds to the partitioning being written.
	ctl, err := mirroredLoop(h, dir, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mock resctrl tree: %s\n\n", dir)
	for t := 1; t <= 16; t++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%-2d ", t)
		for _, st := range ctl.Snapshot() {
			fmt.Printf(" %s=%d(%s)", st.Name, st.Ways, st.State)
		}
		fmt.Printf("   schemata:")
		for cos := 1; cos <= 2; cos++ {
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("cos%d", cos), "schemata"))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" cos%d=%s", cos, trimNL(string(data)))
		}
		fmt.Println()
	}

	fmt.Println("\ncpus_list bindings:")
	for cos := 1; cos <= 2; cos++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("cos%d", cos), "cpus_list"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cos%d: %s", cos, data)
	}
	fmt.Println("\nOn a real machine, point the backend at /sys/fs/resctrl and these")
	fmt.Println("writes program the LLC directly (see cmd/dcatd).")
}

func trimNL(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}
