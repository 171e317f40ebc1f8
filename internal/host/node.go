package host

import (
	"fmt"

	"repro/internal/cat"
	"repro/internal/core"
)

// This file is the one place a simulated host is put under dCat: a CAT
// domain per socket, one decision loop per populated socket, and live
// migration that keeps the host's and the controller's views of a VM
// in step. The experiments, the study runner, dcat-sim, dcatd -demo
// and the examples all assemble their nodes here; each period is
// RunInterval followed by the controller's Tick.

// CATBackend returns the CAT domain of one socket: the backend that
// masks that socket's LLC ways, addressed by the host's global core IDs.
func (h *Host) CATBackend(socket int) (*cat.NUMABackend, error) {
	return cat.NewNUMABackend(h.nsys, socket)
}

// CATManager returns a fresh cat.Manager over one socket's CAT domain.
func (h *Host) CATManager(socket int) (*cat.Manager, error) {
	backend, err := h.CATBackend(socket)
	if err != nil {
		return nil, err
	}
	return cat.NewManager(backend)
}

// Controllers puts every VM currently on the host under dCat: each
// populated socket gets its own cat.Manager and decision loop over the
// VMs placed there (in creation order), and every VM's contracted
// baseline — baselines must name them all — is installed before the
// call returns. CAT domains are per-LLC, so a one-socket host is simply
// a controller of one loop.
func (h *Host) Controllers(cfg core.Config, baselines map[string]int) (*core.Controller, error) {
	targets := make([][]core.Target, h.cfg.Sockets)
	for _, vm := range h.vms {
		b, ok := baselines[vm.Name]
		if !ok {
			return nil, fmt.Errorf("host: no baseline for VM %q", vm.Name)
		}
		targets[vm.Socket] = append(targets[vm.Socket],
			core.Target{Name: vm.Name, Cores: vm.Cores, BaselineWays: b})
	}
	var specs []core.SocketSpec
	for socket, ts := range targets {
		if len(ts) == 0 {
			continue
		}
		mgr, err := h.CATManager(socket)
		if err != nil {
			return nil, err
		}
		specs = append(specs, core.SocketSpec{Socket: socket, Mgr: mgr, Targets: ts})
	}
	return core.NewMulti(cfg, h.Counters(), specs)
}

// MigrateManaged live-migrates a VM that ctl manages: the host
// reassigns its cores on the destination socket (MigrateVM), then the
// destination's loop adopts the workload with its learned state. If
// that loop rejects the adoption — e.g. its pool cannot honor the
// baseline — the host cores are put back, so host and controller never
// disagree about where a VM runs.
func (h *Host) MigrateManaged(ctl *core.Controller, name string, toSocket int) error {
	vm, ok := h.VM(name)
	if !ok {
		return fmt.Errorf("host: no VM %q", name)
	}
	from := vm.Socket
	moved, err := h.MigrateVM(name, toSocket)
	if err != nil {
		return err
	}
	if err := ctl.Migrate(name, toSocket, moved.Cores); err != nil {
		if _, backErr := h.MigrateVM(name, from); backErr != nil {
			return fmt.Errorf("host: migrate %q: %v (host rollback failed: %v)", name, err, backErr)
		}
		return err
	}
	return nil
}
