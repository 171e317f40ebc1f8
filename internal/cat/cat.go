// Package cat manages Intel CAT classes of service (COS) for groups of
// cores, enforcing the platform rules dCat relies on (paper §4 and §6):
//
//   - at most 16 classes of service per socket,
//   - each capacity bitmask is contiguous and covers at least one way
//     (x86 does not allow a 0-way allocation),
//   - tenant masks never overlap (the paper's isolation requirement:
//     "we do not allow the COS overlap among cores").
//
// The Manager converts per-group way *counts* — what the dCat
// controller reasons about — into a packed, contiguous, non-overlapping
// way layout, and pushes the masks to a Backend: either the simulated
// memory system or a resctrl filesystem.
package cat

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bits"
)

// MaxCOS is the class-of-service limit on current Intel parts.
const MaxCOS = 16

// Backend applies a class of service to hardware.
type Backend interface {
	// TotalWays returns the LLC associativity.
	TotalWays() int
	// Apply installs mask as the fill mask of every core in cores.
	Apply(cos int, mask bits.CBM, cores []int) error
}

// OccupancyReader is implemented by backends that can report how many
// bytes of LLC a class of service currently occupies — Intel's Cache
// Monitoring Technology (CMT). The paper notes CMT alone cannot drive
// dCat (footnote 5: it reports statistics but cannot pick partitions);
// here it powers telemetry.
type OccupancyReader interface {
	GroupOccupancy(cos int, cores []int) (uint64, error)
}

// Occupancy returns each group's current LLC footprint in bytes, when
// the backend supports monitoring (ok=false otherwise).
func (m *Manager) Occupancy() (map[string]uint64, bool) {
	r, ok := m.backend.(OccupancyReader)
	if !ok {
		return nil, false
	}
	out := make(map[string]uint64, len(m.groups))
	for _, g := range m.groups {
		v, err := r.GroupOccupancy(g.COS, g.Cores)
		if err != nil {
			return nil, false
		}
		out[g.Name] = v
	}
	return out, true
}

// WayFlusher is implemented by backends that can clear reassigned
// ways. Intel has no per-way flush instruction, so the paper runs a
// user-level flush pass after changing allocations (§6); the simulator
// backend implements it directly. Without the flush, data left in a
// reassigned way keeps serving hits to its previous owner, leaking
// capacity across the isolation boundary.
type WayFlusher interface {
	FlushWays(mask bits.CBM) error
}

// Group is one isolation domain: a tenant's cores sharing a COS.
type Group struct {
	Name  string
	COS   int
	Cores []int
	// Ways is the current way count; Mask the installed bitmask.
	Ways int
	Mask bits.CBM
}

// Manager owns the socket's COS table: one row per group, in creation
// order, which is also the order SetAllocation packs masks in.
type Manager struct {
	backend Backend
	groups  []*Group
}

// NewManager wraps a backend.
func NewManager(b Backend) (*Manager, error) {
	if b == nil {
		return nil, fmt.Errorf("cat: nil backend")
	}
	if b.TotalWays() < 1 || b.TotalWays() > bits.MaxWays {
		return nil, fmt.Errorf("cat: backend reports %d ways", b.TotalWays())
	}
	return &Manager{backend: b}, nil
}

// TotalWays returns the LLC associativity.
func (m *Manager) TotalWays() int { return m.backend.TotalWays() }

// CreateGroup registers a tenant with its dedicated cores. The group
// starts with zero ways; call SetAllocation to install masks. The
// paper's constraint that isolated tenants cannot exceed the COS count
// or the associativity is enforced here.
func (m *Manager) CreateGroup(name string, cores []int) (*Group, error) {
	if name == "" {
		return nil, fmt.Errorf("cat: empty group name")
	}
	if m.index(name) >= 0 {
		return nil, fmt.Errorf("cat: group %q already exists", name)
	}
	if len(m.groups) >= MaxCOS {
		return nil, fmt.Errorf("cat: COS limit %d reached", MaxCOS)
	}
	if len(m.groups) >= m.TotalWays() {
		return nil, fmt.Errorf("cat: cannot isolate more groups than the %d ways", m.TotalWays())
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("cat: group %q has no cores", name)
	}
	for _, g := range m.groups {
		for _, c := range cores {
			if slices.Contains(g.Cores, c) {
				return nil, fmt.Errorf("cat: core %d already owned by group %q", c, g.Name)
			}
		}
	}
	g := &Group{Name: name, COS: m.nextCOS(), Cores: slices.Clone(cores)}
	m.groups = append(m.groups, g)
	return g, nil
}

// nextCOS returns the smallest class of service not held by any group.
// COS 0 stays reserved for the default class. Simply counting groups
// would hand out a COS still in use once RemoveGroup has punched a hole
// in the sequence (tenant churn, migration).
func (m *Manager) nextCOS() int {
	var used uint32
	for _, g := range m.groups {
		used |= 1 << g.COS
	}
	cos := 1
	for used&(1<<cos) != 0 {
		cos++
	}
	return cos
}

// RemoveGroup forgets a tenant and frees its cores. Its ways return to
// the free pool on the next SetAllocation.
func (m *Manager) RemoveGroup(name string) error {
	i := m.index(name)
	if i < 0 {
		return fmt.Errorf("cat: no group %q", name)
	}
	m.groups = slices.Delete(m.groups, i, i+1)
	return nil
}

// index returns the slot of the named group, or -1.
func (m *Manager) index(name string) int {
	return slices.IndexFunc(m.groups, func(g *Group) bool { return g.Name == name })
}

// Group returns a group by name.
func (m *Manager) Group(name string) (*Group, bool) {
	if i := m.index(name); i >= 0 {
		return m.groups[i], true
	}
	return nil, false
}

// Groups returns all groups in creation order.
func (m *Manager) Groups() []*Group { return slices.Clone(m.groups) }

// SetAllocation installs ways[i] as the way count of Groups()[i]. Every
// count must be >= 1 and their sum must fit the associativity; a call
// that breaks either rule, or names a different number of groups, is
// rejected before anything changes. Masks are packed contiguously in
// group-creation order, so groups keep their relative position across
// reallocations and only boundary ways move between tenants.
//
// It is not atomic. Groups are applied one at a time in layout order
// (an unchanged mask is skipped), and a backend failure stops the pass:
// groups before the failing one hold their new masks, it and the rest
// their old ones. Each group's Mask and Ways always record what the
// backend last accepted for its COS, but until the next successful
// SetAllocation a grown group may overlap a neighbour that kept its old
// mask, and Validate reports it.
func (m *Manager) SetAllocation(ways []int) error {
	if len(ways) != len(m.groups) {
		return fmt.Errorf("cat: allocation names %d groups, manager has %d", len(ways), len(m.groups))
	}
	sum := 0
	for i, n := range ways {
		if n < 1 {
			return fmt.Errorf("cat: group %q would get %d ways; minimum is 1", m.groups[i].Name, n)
		}
		sum += n
	}
	if sum > m.TotalWays() {
		return fmt.Errorf("cat: allocation of %d ways exceeds %d", sum, m.TotalWays())
	}
	var unionOld, unionNew bits.CBM
	start := 0
	for i, g := range m.groups {
		mask := bits.MustCBM(start, ways[i]) // in range: sum <= TotalWays <= MaxWays
		start += ways[i]
		// Skip untouched groups: on resctrl every Apply is a file
		// write, and steady state changes nothing tick after tick.
		if mask != g.Mask {
			if err := m.backend.Apply(g.COS, mask, g.Cores); err != nil {
				return fmt.Errorf("cat: applying %q: %w", g.Name, err)
			}
		}
		unionOld |= g.Mask
		unionNew |= mask
		g.Mask, g.Ways = mask, ways[i]
	}
	// The §6 flush pass, applied only to ways returning to the free
	// pool: unowned ways are never filled again, so without a flush
	// their stale contents would keep serving hits to the old owner
	// indefinitely (leaking capacity a streamer already forfeited).
	// Ways transferred between tenants need no flush — the new owner
	// naturally evicts the previous tenant's lines, just as on real
	// CAT hardware.
	if f, ok := m.backend.(WayFlusher); ok {
		if pooled := unionOld &^ unionNew; pooled != 0 {
			if err := f.FlushWays(pooled); err != nil {
				return fmt.Errorf("cat: flushing pooled ways: %w", err)
			}
		}
	}
	return nil
}

// Validate checks manager invariants: contiguous, non-overlapping
// masks within the associativity. Intended for tests and debugging.
func (m *Manager) Validate() error {
	gs := m.Groups()
	sort.Slice(gs, func(i, j int) bool { return gs[i].Mask < gs[j].Mask })
	for i, g := range gs {
		if g.Ways == 0 {
			continue // not yet allocated
		}
		if !g.Mask.Valid(m.TotalWays()) {
			return fmt.Errorf("cat: group %q mask %s invalid", g.Name, g.Mask)
		}
		if g.Mask.Count() != g.Ways {
			return fmt.Errorf("cat: group %q mask %s does not match %d ways", g.Name, g.Mask, g.Ways)
		}
		for _, h := range gs[i+1:] {
			if h.Ways != 0 && g.Mask.Overlaps(h.Mask) {
				return fmt.Errorf("cat: groups %q and %q overlap", g.Name, h.Name)
			}
		}
	}
	return nil
}
