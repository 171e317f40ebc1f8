package core

import (
	"strings"
	"testing"

	"repro/internal/bits"
)

// TestCheckInvariantsCatchesLayoutDrift breaks each rule of
// CheckInvariants on an otherwise healthy controller and expects the
// violation it names.
func TestCheckInvariantsCatchesLayoutDrift(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *rig)
		want    string
	}{
		{"group without a workload", func(r *rig) {
			r.mgr.RemoveGroup("c")
		}, "2 CAT groups for 3 workloads"},
		{"slots swapped", func(r *rig) {
			l := r.ctl.loops[0]
			l.order[0], l.order[1] = l.order[1], l.order[0]
		}, `slot 0 holds group "a", workload "b"`},
		{"counts drift from the records", func(r *rig) {
			r.mgr.SetAllocation([]int{4, 3, 3})
		}, `group "a" has 4 ways, its workload holds 3`},
		{"a group with no ways", func(r *rig) {
			g, _ := r.mgr.CreateGroup("d", []int{3})
			l := r.ctl.loops[0]
			l.order = append(l.order, &wstate{l: l, name: g.Name})
		}, `group "d" has 0 ways; minimum is 1`},
		{"over the associativity", func(r *rig) {
			g := r.mgr.Groups()[0]
			g.Ways, r.ctl.ws["a"].ways = 10, 10
		}, "14 ways allocated of 10"},
		{"overlapping masks", func(r *rig) {
			gs := r.mgr.Groups()
			gs[1].Mask = bits.MustCBM(2, 3)
		}, `groups "a" and "b" overlap`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, DefaultConfig(), 10, []string{"a", "b", "c"}, []int{3, 3, 1},
				map[string]behavior{"a": idleBehavior(), "b": idleBehavior(), "c": idleBehavior()})
			checkInvariants(t, r.ctl, "baselines")
			tc.corrupt(r)
			err := r.ctl.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
