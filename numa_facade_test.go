package dcat

import "testing"

// TestSimulationNUMALifecycle exercises the multi-socket facade end to
// end: placement, per-socket controllers, topology specs, occupancy,
// and cross-socket traffic accounting.
func TestSimulationNUMALifecycle(t *testing.T) {
	sim, err := NewSimulation(SimConfig{CyclesPerInterval: 4_000_000, Sockets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Host().NUMA().Sockets() != 2 {
		t.Fatal("Sockets=2 should build a 2-socket host")
	}
	// Target on socket 0, memory from socket 1: every miss crosses.
	mlr, err := sim.NewMLROn(1, 8<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddVM("target", 2, mlr); err != nil {
		t.Fatal(err)
	}
	baselines := map[string]int{"target": 3}
	for socket := 0; socket < 2; socket++ {
		name := []string{"lb0", "lb1"}[socket]
		w, err := sim.NewLookbusyOn(socket)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.AddVMOn(socket, name, 2, w); err != nil {
			t.Fatal(err)
		}
		baselines[name] = 3
	}
	if err := sim.Start(DefaultConfig(), baselines); err != nil {
		t.Fatal(err)
	}
	m := sim.Controller()
	if got := m.Sockets(); len(got) != 2 {
		t.Fatalf("controller set covers sockets %v, want one loop per populated socket", got)
	}
	if err := sim.Run(8); err != nil {
		t.Fatal(err)
	}
	if s, ok := m.SocketOf("target"); !ok || s != 0 {
		t.Errorf("target on socket %d, want 0", s)
	}
	if s, ok := m.SocketOf("lb1"); !ok || s != 1 {
		t.Errorf("lb1 on socket %d, want 1", s)
	}
	if len(sim.Snapshot()) != 3 {
		t.Errorf("snapshot has %d entries, want 3", len(sim.Snapshot()))
	}
	occ := sim.Occupancy()
	if occ["target"] == 0 {
		t.Error("target shows no LLC occupancy")
	}
	if got := sim.Host().NUMA().RemoteAccesses(0); got == 0 {
		t.Error("remote-homed working set produced no cross-socket accesses")
	}
	if w := m.Ways("target"); w <= 3 {
		t.Errorf("cache-hungry target stuck at %d ways; should have grown", w)
	}
}

func TestSimulationTopologySpec(t *testing.T) {
	sim, err := NewSimulation(SimConfig{
		CyclesPerInterval: 4_000_000,
		Topology:          "sockets=2,machine=xeon-d,penalty=150",
	})
	if err != nil {
		t.Fatal(err)
	}
	nsys := sim.Host().NUMA()
	if nsys.Sockets() != 2 {
		t.Fatal("topology spec should build a 2-socket host")
	}
	if cfg := nsys.Config(); cfg.Socket.Cores != 8 || cfg.RemotePenalty != 150 {
		t.Errorf("topology not applied: %+v", cfg)
	}
	if _, err := NewSimulation(SimConfig{Topology: "sockets=0"}); err == nil {
		t.Error("invalid topology spec should be rejected")
	}
}
