package core

import "fmt"

// CheckInvariants checks the layout half of DESIGN §6 on every loop:
// the CAT manager's groups are the loop's workloads in the same order
// (the slot contract SetAllocation relies on), each group holds the
// ways its workload's record says and at least one, the counts fit the
// socket, and the masks validate (contiguous, non-overlapping, matching
// the counts). It returns the first violation found.
func (c *Controller) CheckInvariants() error {
	for _, l := range c.loops {
		gs := l.mgr.Groups()
		if len(gs) != len(l.order) {
			return fmt.Errorf("core: socket %d: %d CAT groups for %d workloads", l.socket, len(gs), len(l.order))
		}
		sum := 0
		for i, g := range gs {
			w := l.order[i]
			if g.Name != w.name {
				return fmt.Errorf("core: socket %d: slot %d holds group %q, workload %q", l.socket, i, g.Name, w.name)
			}
			if g.Ways != w.ways {
				return fmt.Errorf("core: socket %d: group %q has %d ways, its workload holds %d", l.socket, g.Name, g.Ways, w.ways)
			}
			if g.Ways < 1 {
				return fmt.Errorf("core: socket %d: group %q has %d ways; minimum is 1", l.socket, g.Name, g.Ways)
			}
			sum += g.Ways
		}
		if total := l.mgr.TotalWays(); sum > total {
			return fmt.Errorf("core: socket %d: %d ways allocated of %d", l.socket, sum, total)
		}
		if err := l.mgr.Validate(); err != nil {
			return fmt.Errorf("core: socket %d: %w", l.socket, err)
		}
	}
	return nil
}
