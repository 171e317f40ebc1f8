package main

import (
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cat"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/resctrl"
	"repro/internal/workload"
)

func TestMirrorBackend(t *testing.T) {
	backend := func(mem memsys.Config) cat.Backend {
		cfg := host.DefaultConfig()
		cfg.Mem = mem
		b, err := host.MustNew(cfg).CATBackend(0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	m, err := newMirror(backend(memsys.XeonE5()), backend(memsys.XeonE5()))
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalWays() != 20 {
		t.Errorf("TotalWays=%d", m.TotalWays())
	}
	if _, err := newMirror(backend(memsys.XeonE5()), backend(memsys.XeonD())); err == nil {
		t.Error("mismatched way counts should fail")
	}
}

// TestMirrorBackendDrivesBoth: every write reaches both sides — the
// mock tree holds the tenant's grown schemata, and the simulator's
// masks change the tenant's IPC.
func TestMirrorBackendDrivesBoth(t *testing.T) {
	dir := t.TempDir()
	if err := resctrl.CreateMockTree(dir, 20, 16, 18); err != nil {
		t.Fatal(err)
	}
	hc := host.DefaultConfig()
	hc.CyclesPerInterval = 4_000_000
	h := host.MustNew(hc)
	mlr, err := workload.NewMLR(4<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("t", 2, mlr); err != nil {
		t.Fatal(err)
	}
	ctl, err := mirroredLoop(h, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if snap := ctl.Snapshot(); snap[0].NormIPC <= 1.05 {
		t.Errorf("mirrored masks should reach the simulator; normIPC=%.2f", snap[0].NormIPC)
	}
	schemata, err := os.ReadFile(filepath.Join(dir, "cos1", "schemata"))
	if err != nil {
		t.Fatal(err)
	}
	mask, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimSpace(string(schemata)), "L3:0="), 16, 64)
	if err != nil {
		t.Fatalf("schemata %q: %v", schemata, err)
	}
	if ways := ctl.Ways("t"); ways <= 3 || bits.OnesCount64(mask) != ways {
		t.Errorf("tenant at %d ways, schemata %q; the controller should grow it through the tree", ways, schemata)
	}
	if occ, ok := ctl.Controller(0).Occupancy(); ok {
		// The mirror has no monitoring, so the manager reports false —
		// verify we don't invent numbers.
		t.Errorf("mirror without CMT should not report occupancy, got %v", occ)
	}
}
