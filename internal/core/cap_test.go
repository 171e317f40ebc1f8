package core

import "testing"

// TestSetWayCapLimitsGrowth: an advisory cap stops a Receiver at the
// cap; clearing it resumes growth.
func TestSetWayCapLimitsGrowth(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"grower", "idle"}, []int{3, 3},
		map[string]behavior{"grower": tableBehavior(18, 0.2), "idle": idleBehavior()})
	if !r.ctl.SetWayCap("grower", 6) {
		t.Fatal("SetWayCap rejected a known workload")
	}
	if got := r.ctl.ws["grower"].capWays; got != 6 {
		t.Fatalf("cap = %d, want 6", got)
	}
	r.run(20)
	if got := r.ctl.Ways("grower"); got > 6 {
		t.Errorf("capped workload holds %d ways, cap is 6", got)
	}
	r.ctl.SetWayCap("grower", 0)
	r.run(20)
	if got := r.ctl.Ways("grower"); got <= 6 {
		t.Errorf("after clearing the cap the workload holds %d ways, want growth past 6", got)
	}
}

// TestSetWayCapNeverBelowBaseline: a cap below the contracted baseline
// acts as the baseline — the guarantee outranks the hint.
func TestSetWayCapNeverBelowBaseline(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"grower", "idle"}, []int{4, 3},
		map[string]behavior{"grower": tableBehavior(18, 0.2), "idle": idleBehavior()})
	r.ctl.SetWayCap("grower", 2)
	r.run(15)
	if got := r.ctl.Ways("grower"); got < 4 {
		t.Errorf("cap 2 pushed the workload to %d ways, below its baseline 4", got)
	}
	if got := r.ctl.Ways("grower"); got > 4 {
		t.Errorf("cap 2 (clamped to baseline 4) let the workload hold %d ways", got)
	}
}

// TestSetWayCapUnknownWorkload: unknown names are reported, not
// silently accepted.
func TestSetWayCapUnknownWorkload(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": idleBehavior()})
	if r.ctl.SetWayCap("nope", 3) {
		t.Error("SetWayCap accepted an unknown workload")
	}
	if _, ok := r.ctl.ws["nope"]; ok {
		t.Error("SetWayCap registered an unknown workload")
	}
}

// TestSnapshotReportsMissRate: Status carries the interval's measured
// miss rate and LLC reference count (the cluster report fields).
func TestSnapshotReportsMissRate(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"stream"}, []int{3},
		map[string]behavior{"stream": streamBehavior()})
	r.run(3)
	snap := r.ctl.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	if snap[0].MissRate < 0.9 {
		t.Errorf("streaming workload reports miss rate %f, want ~0.95", snap[0].MissRate)
	}
	if snap[0].LLCRef == 0 {
		t.Error("snapshot LLCRef not populated")
	}
}
