package cluster

import (
	"context"
	"math"
	"testing"
)

// smallTenantRig is a coordinator rig whose time-series plane is a
// small table, so a test reaches both memory bounds in a few reports.
func smallTenantRig(t *testing.T, ringSize, tenants int) *coordRig {
	r := newCoordRig(t, CoordinatorConfig{})
	r.coord.tenants = newTenantTable(ringSize, tenants)
	return r
}

// TestTenantMetricsRetention pins the time-series plane's documented
// memory bound: each (agent, workload) ring holds exactly its ring
// size in samples — the newest, oldest-first — no matter how many
// reports arrive.
func TestTenantMetricsRetention(t *testing.T) {
	r := smallTenantRig(t, 4, 8)
	id := r.enroll(t, "host-a")
	ctx := context.Background()

	for i := 1; i <= 10; i++ {
		rep := validReport()
		rep.AgentID = id
		rep.Tick = i
		rep.Workloads[0].IPC = float64(i)
		rep.Workloads[0].MAPI = 0.02
		rep.Workloads[0].MissRate = 0.5
		if _, err := r.cli.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}

	m := r.coord.TenantMetricsSnapshot()
	if m.RingSize != 4 || m.MaxTenants != 8 || m.Overflow != 0 {
		t.Fatalf("plane bounds: %+v", m)
	}
	if len(m.Series) != 1 || m.Series[0].Agent != "host-a" || m.Series[0].Workload != "web" {
		t.Fatalf("series: %+v", m.Series)
	}
	samples := m.Series[0].Samples
	if len(samples) != 4 {
		t.Fatalf("ring holds %d samples after 10 reports, want exactly 4", len(samples))
	}
	// Oldest-first, and only the newest four survive.
	for i, want := range []float64{7, 8, 9, 10} {
		if samples[i].IPC != want {
			t.Errorf("sample %d: IPC %g, want %g", i, samples[i].IPC, want)
		}
	}
	// MPKI is derived at ingest: MAPI x miss rate x 1000.
	if got, want := samples[3].MPKI, 0.02*0.5*1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("MPKI %g, want %g", got, want)
	}
	if samples[3].Tick != 10 || samples[3].Unix == 0 {
		t.Errorf("newest sample missing provenance: %+v", samples[3])
	}
}

// TestTenantMetricsTenantCap pins the other half of the bound: pairs
// past the tenant cap are counted as overflow, never stored, so a
// churning fleet cannot grow the plane.
func TestTenantMetricsTenantCap(t *testing.T) {
	r := smallTenantRig(t, 4, 2)
	ctx := context.Background()

	idA := r.enroll(t, "host-a")
	rep := validReport()
	rep.AgentID = idA
	// Two workloads from host-a fill the cap.
	rep.Workloads = append(rep.Workloads, rep.Workloads[0])
	rep.Workloads[1].Name = "batch"
	if _, err := r.cli.Report(ctx, rep); err != nil {
		t.Fatal(err)
	}

	// A second host's reports land entirely in overflow.
	idB := r.enroll(t, "host-b")
	for i := 1; i <= 3; i++ {
		rep := validReport()
		rep.AgentID = idB
		rep.Tick = i
		if _, err := r.cli.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}

	m := r.coord.TenantMetricsSnapshot()
	if len(m.Series) != 2 {
		t.Fatalf("tenant cap leaked: %d series, want 2", len(m.Series))
	}
	for _, s := range m.Series {
		if s.Agent != "host-a" {
			t.Errorf("capped-out tenant stored: %s/%s", s.Agent, s.Workload)
		}
		if len(s.Samples) > m.RingSize {
			t.Errorf("%s/%s: %d samples exceed the ring size %d", s.Agent, s.Workload, len(s.Samples), m.RingSize)
		}
	}
	if m.Overflow != 3 {
		t.Errorf("overflow %d, want 3 (one per host-b report)", m.Overflow)
	}
}
