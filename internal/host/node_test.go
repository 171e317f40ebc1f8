package host

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// twoSocketNode builds a 2-socket host (4 cores and a 4-way LLC each)
// with VMs "a" and "keep" on socket 0 and "b" on socket 1, under dCat
// at the given baselines ("keep" contracts one way; it stays behind so
// migrating "a" away never orphans socket 0's loop).
func twoSocketNode(t *testing.T, baseA, baseB int) (*Host, *core.Controller) {
	t.Helper()
	h := MustNew(numaConfig(2, 0))
	if _, err := h.AddVMOn(0, "a", 2, workload.Idle{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVMOn(0, "keep", 1, workload.Idle{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVMOn(1, "b", 2, workload.Idle{}); err != nil {
		t.Fatal(err)
	}
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{"a": baseA, "keep": 1, "b": baseB})
	if err != nil {
		t.Fatal(err)
	}
	return h, ctl
}

// loopSockets lists the sockets the controller's snapshot reports, in
// snapshot (tick) order, each once.
func loopSockets(ctl *core.Controller) []int {
	var out []int
	for _, st := range ctl.Snapshot() {
		if len(out) == 0 || out[len(out)-1] != st.Socket {
			out = append(out, st.Socket)
		}
	}
	return out
}

// socketOf reports which socket's loop manages a workload.
func socketOf(ctl *core.Controller, name string) (int, bool) {
	for _, st := range ctl.Snapshot() {
		if st.Name == name {
			return st.Socket, true
		}
	}
	return 0, false
}

func TestControllersOneLoopPerPopulatedSocket(t *testing.T) {
	_, ctl := twoSocketNode(t, 2, 3)
	if got := loopSockets(ctl); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("loops on sockets %v, want [0 1]", got)
	}
	if ctl.Ways("a") != 2 || ctl.Ways("b") != 3 {
		t.Errorf("baselines not installed: a=%d b=%d", ctl.Ways("a"), ctl.Ways("b"))
	}

	// Only socket 1 populated: one loop, on socket 1.
	h := MustNew(numaConfig(2, 0))
	if _, err := h.AddVMOn(1, "solo", 2, workload.Idle{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Controllers(core.DefaultConfig(), nil); err == nil {
		t.Error("a VM without a baseline should be rejected")
	}
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{"solo": 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := loopSockets(ctl); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("loops on sockets %v, want [1]", got)
	}
}

// TestMigrateManagedRollsBackOnReject: when the destination loop cannot
// honor the migrant's baseline, the host cores go back, so host and
// controllers still agree on where the VM runs.
func TestMigrateManagedRollsBackOnReject(t *testing.T) {
	h, ctl := twoSocketNode(t, 2, 3) // socket 1 has one free way; "a" needs two
	before := append([]int(nil), h.VMs()[0].Cores...)
	if err := h.MigrateManaged(ctl, "a", 1); err == nil {
		t.Fatal("migration into an over-contracted socket should be rejected")
	}
	vm, _ := h.VM("a")
	if vm.Socket != 0 || !reflect.DeepEqual(vm.Cores, before) {
		t.Errorf("host not rolled back: socket=%d cores=%v, want socket 0 cores %v", vm.Socket, vm.Cores, before)
	}
	if s, ok := socketOf(ctl, "a"); !ok || s != 0 {
		t.Errorf("controller has a on socket %d (managed=%v), want 0", s, ok)
	}
	if h.FreeCores(1) != 2 {
		t.Errorf("socket 1 has %d free cores, want the 2 the rollback returned", h.FreeCores(1))
	}

	// With room on the destination the same call moves both views.
	h, ctl = twoSocketNode(t, 2, 2)
	if err := h.MigrateManaged(ctl, "a", 1); err != nil {
		t.Fatal(err)
	}
	vm, _ = h.VM("a")
	if s, _ := socketOf(ctl, "a"); vm.Socket != 1 || s != 1 {
		t.Errorf("after migration host says socket %d, controllers say %d", vm.Socket, s)
	}
	if err := h.MigrateManaged(ctl, "ghost", 0); err == nil {
		t.Error("unknown VM should be rejected")
	}
}
