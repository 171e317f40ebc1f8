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
	for name, g := range m.groups {
		v, err := r.GroupOccupancy(g.COS, g.Cores)
		if err != nil {
			return nil, false
		}
		out[name] = v
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

// Manager owns the socket's COS table.
type Manager struct {
	backend Backend
	groups  map[string]*Group
	order   []string // creation order: stable layout packing
	coreUse map[int]string
	updates []update // SetAllocation's layout, reused across calls
}

// update is one group's pending mask in a SetAllocation layout.
type update struct {
	g    *Group
	mask bits.CBM
	ways int
}

// NewManager wraps a backend.
func NewManager(b Backend) (*Manager, error) {
	if b == nil {
		return nil, fmt.Errorf("cat: nil backend")
	}
	if b.TotalWays() < 1 || b.TotalWays() > bits.MaxWays {
		return nil, fmt.Errorf("cat: backend reports %d ways", b.TotalWays())
	}
	return &Manager{
		backend: b,
		groups:  make(map[string]*Group),
		coreUse: make(map[int]string),
	}, nil
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
	if _, ok := m.groups[name]; ok {
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
	for _, c := range cores {
		if owner, ok := m.coreUse[c]; ok {
			return nil, fmt.Errorf("cat: core %d already owned by group %q", c, owner)
		}
	}
	g := &Group{Name: name, COS: m.nextCOS(), Cores: append([]int(nil), cores...)}
	m.groups[name] = g
	m.order = append(m.order, name)
	for _, c := range cores {
		m.coreUse[c] = name
	}
	return g, nil
}

// nextCOS returns the smallest class of service not held by any group.
// COS 0 stays reserved for the default class. Simply counting groups
// would hand out a COS still in use once RemoveGroup has punched a hole
// in the sequence (tenant churn, migration).
func (m *Manager) nextCOS() int {
	used := make(map[int]bool, len(m.groups))
	for _, g := range m.groups {
		used[g.COS] = true
	}
	cos := 1
	for used[cos] {
		cos++
	}
	return cos
}

// RemoveGroup forgets a tenant and frees its cores. Its ways return to
// the free pool on the next SetAllocation.
func (m *Manager) RemoveGroup(name string) error {
	g, ok := m.groups[name]
	if !ok {
		return fmt.Errorf("cat: no group %q", name)
	}
	delete(m.groups, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	for _, c := range g.Cores {
		delete(m.coreUse, c)
	}
	return nil
}

// Group returns a group by name.
func (m *Manager) Group(name string) (*Group, bool) {
	g, ok := m.groups[name]
	return g, ok
}

// Groups returns all groups in creation order.
func (m *Manager) Groups() []*Group {
	out := make([]*Group, 0, len(m.groups))
	for _, n := range m.order {
		out = append(out, m.groups[n])
	}
	return out
}

// Ways returns a group's current way count (0 for unknown groups).
func (m *Manager) Ways(name string) int {
	if g, ok := m.groups[name]; ok {
		return g.Ways
	}
	return 0
}

// FreeWays returns ways not allocated to any group (the resource pool).
func (m *Manager) FreeWays() int {
	used := 0
	for _, g := range m.groups {
		used += g.Ways
	}
	return m.TotalWays() - used
}

// SetAllocation atomically installs new way counts for every group.
// Every known group must appear in counts with a count >= 1, and the
// counts must fit the associativity. Masks are packed contiguously in
// group-creation order, so groups keep their relative position across
// reallocations and only boundary ways move between tenants.
func (m *Manager) SetAllocation(counts map[string]int) error {
	// Same size and every group present: counts names exactly the
	// groups, so no unknown name can hide in it.
	if len(counts) != len(m.groups) {
		return fmt.Errorf("cat: allocation names %d groups, manager has %d", len(counts), len(m.groups))
	}
	sum := 0
	for _, name := range m.order {
		c, ok := counts[name]
		if !ok {
			return fmt.Errorf("cat: allocation has no count for group %q", name)
		}
		if c < 1 {
			return fmt.Errorf("cat: group %q would get %d ways; minimum is 1", name, c)
		}
		sum += c
	}
	if sum > m.TotalWays() {
		return fmt.Errorf("cat: allocation of %d ways exceeds %d", sum, m.TotalWays())
	}
	// Compute the packed layout first; apply only if fully valid, so a
	// backend failure cannot leave a half-updated mental model.
	updates := m.updates[:0]
	start := 0
	for _, name := range m.order {
		c := counts[name]
		mask, err := bits.NewCBM(start, c)
		if err != nil {
			return fmt.Errorf("cat: layout: %w", err)
		}
		updates = append(updates, update{g: m.groups[name], mask: mask, ways: c})
		start += c
	}
	m.updates = updates
	var unionOld, unionNew bits.CBM
	for _, u := range updates {
		// Skip untouched groups: on resctrl every Apply is a file
		// write, and steady state changes nothing tick after tick.
		if u.mask != u.g.Mask || u.g.Ways == 0 {
			if err := m.backend.Apply(u.g.COS, u.mask, u.g.Cores); err != nil {
				return fmt.Errorf("cat: applying %q: %w", u.g.Name, err)
			}
		}
		unionOld |= u.g.Mask
		unionNew |= u.mask
		u.g.Mask = u.mask
		u.g.Ways = u.ways
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

// Allocation returns the current way counts by group name.
func (m *Manager) Allocation() map[string]int {
	out := make(map[string]int, len(m.groups))
	for name, g := range m.groups {
		out[name] = g.Ways
	}
	return out
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
