package core

import (
	"fmt"
	"sort"

	"repro/internal/cat"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

// This file runs dCat on a whole host: CAT domains are per-LLC, so a
// machine runs one full decision loop per socket — each with its own
// cat.Manager over that socket's backend and its own workload set —
// while sharing the journal and metrics plumbing. The MultiController
// is the thin fan-out over those loops; it adds no policy of its own,
// matching real deployments where sockets are independent CAT domains.
// A one-socket host is a set of one loop.

// SocketSpec wires one socket's decision loop: the socket ID, a CAT
// manager over that socket's backend, and the workloads placed there.
type SocketSpec struct {
	Socket  int
	Mgr     *cat.Manager
	Targets []Target
}

// MultiController is one dCat controller per socket, ticked together.
type MultiController struct {
	ctls   map[int]*Controller
	order  []int          // sockets in ascending order, the tick order
	homeOf map[string]int // workload name → socket
}

// NewMulti builds a controller per socket spec. Sockets must be unique
// and workload names unique across the whole host, so name-keyed
// queries (Ways, StateOf) stay unambiguous.
func NewMulti(cfg Config, counters perf.Reader, specs []SocketSpec) (*MultiController, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no socket specs")
	}
	m := &MultiController{
		ctls:   make(map[int]*Controller, len(specs)),
		homeOf: make(map[string]int),
	}
	for _, spec := range specs {
		if _, dup := m.ctls[spec.Socket]; dup {
			return nil, fmt.Errorf("core: socket %d specified twice", spec.Socket)
		}
		for _, t := range spec.Targets {
			if prev, dup := m.homeOf[t.Name]; dup {
				return nil, fmt.Errorf("core: workload %q on sockets %d and %d", t.Name, prev, spec.Socket)
			}
			m.homeOf[t.Name] = spec.Socket
		}
		ctl, err := New(cfg, spec.Mgr, counters, spec.Targets)
		if err != nil {
			return nil, fmt.Errorf("core: socket %d: %w", spec.Socket, err)
		}
		m.ctls[spec.Socket] = ctl
		m.order = append(m.order, spec.Socket)
	}
	sort.Ints(m.order)
	return m, nil
}

// Tick runs every socket's decision loop once, in ascending socket
// order (deterministic for the experiment engine). The first error
// aborts the round.
func (m *MultiController) Tick() error {
	for _, s := range m.order {
		if err := m.ctls[s].Tick(); err != nil {
			return fmt.Errorf("socket %d: %w", s, err)
		}
	}
	return nil
}

// Ticks returns the decision-loop count — all sockets tick together,
// so any one controller's count is the host's.
func (m *MultiController) Ticks() int { return m.ctls[m.order[0]].Ticks() }

// TotalWays returns one socket's LLC associativity. The modeled hosts
// have identical per-socket CAT domains, and the fleet protocol
// reports per-socket capacity.
func (m *MultiController) TotalWays() int { return m.ctls[m.order[0]].TotalWays() }

// Sockets returns the socket IDs in tick order.
func (m *MultiController) Sockets() []int { return append([]int(nil), m.order...) }

// Controller returns one socket's loop (nil if the socket has none).
func (m *MultiController) Controller(socket int) *Controller { return m.ctls[socket] }

// SocketOf returns which socket's controller manages a workload.
func (m *MultiController) SocketOf(name string) (int, bool) {
	s, ok := m.homeOf[name]
	return s, ok
}

// Ways returns a workload's current allocation, wherever it lives
// (0 for unknown workloads, matching Controller.Ways).
func (m *MultiController) Ways(name string) int {
	if s, ok := m.homeOf[name]; ok {
		return m.ctls[s].Ways(name)
	}
	return 0
}

// StateOf returns a workload's category, wherever it lives.
func (m *MultiController) StateOf(name string) (State, bool) {
	if s, ok := m.homeOf[name]; ok {
		return m.ctls[s].StateOf(name)
	}
	return 0, false
}

// SetWayCap forwards an advisory cap to the workload's controller.
func (m *MultiController) SetWayCap(name string, ways int) bool {
	if s, ok := m.homeOf[name]; ok {
		return m.ctls[s].SetWayCap(name, ways)
	}
	return false
}

// AddTarget hands a new workload to the given socket's loop mid-run —
// tenant churn's hot-plug path. The arrival is registered in the
// name→socket index so Ways/StateOf/Migrate see churned tenants
// exactly like construction-time ones, and the arrival grace
// (Config.ArrivalGraceTicks) arms just as it does for a migration
// import, since a hot-plugged tenant refills a cold LLC the same way.
func (m *MultiController) AddTarget(socket int, t Target, st *WorkloadState) error {
	ctl, ok := m.ctls[socket]
	if !ok {
		return fmt.Errorf("core: no controller on socket %d", socket)
	}
	if prev, dup := m.homeOf[t.Name]; dup {
		return fmt.Errorf("core: workload %q already managed on socket %d", t.Name, prev)
	}
	if err := ctl.AddTarget(t, st); err != nil {
		return err
	}
	m.homeOf[t.Name] = socket
	return nil
}

// RemoveTarget stops managing a workload wherever it lives — tenant
// churn's departure path. The workload's learned state is returned
// (callers that re-admit the tenant later can carry it back in), its
// CLOS group is reclaimed by its socket's loop, and the name leaves
// the index.
func (m *MultiController) RemoveTarget(name string) (WorkloadState, error) {
	s, ok := m.homeOf[name]
	if !ok {
		return WorkloadState{}, fmt.Errorf("core: no workload %q", name)
	}
	st, err := m.ctls[s].RemoveTarget(name)
	if err != nil {
		return WorkloadState{}, err
	}
	delete(m.homeOf, name)
	return st, nil
}

// Migrate moves a workload's decision-loop state from its current
// socket's controller to another's: the source exports and drops it,
// the destination imports it on the given cores (the ones the host
// assigned there — see host.MigrateVM) at its contracted baseline, with
// the learned phase baseline and performance tables carried over so the
// destination loop resumes instead of re-learning. If the destination
// rejects the workload it is restored on the source, so it is never
// left unmanaged.
func (m *MultiController) Migrate(name string, toSocket int, cores []int) error {
	from, ok := m.homeOf[name]
	if !ok {
		return fmt.Errorf("core: no workload %q", name)
	}
	if from == toSocket {
		return fmt.Errorf("core: workload %q is already on socket %d", name, toSocket)
	}
	dst, ok := m.ctls[toSocket]
	if !ok {
		return fmt.Errorf("core: no controller on socket %d", toSocket)
	}
	src := m.ctls[from]
	st, err := src.RemoveTarget(name)
	if err != nil {
		return err
	}
	if err := dst.AddTarget(Target{Name: name, Cores: cores, BaselineWays: st.BaselineWays}, &st); err != nil {
		restoreErr := src.AddTarget(Target{Name: name, Cores: st.Cores, BaselineWays: st.BaselineWays}, &st)
		if restoreErr != nil {
			return fmt.Errorf("core: migrate %q to socket %d: %v (restore on socket %d failed: %v)",
				name, toSocket, err, from, restoreErr)
		}
		return fmt.Errorf("core: migrate %q to socket %d: %w", name, toSocket, err)
	}
	m.homeOf[name] = toSocket
	return nil
}

// Snapshot concatenates the per-socket snapshots in tick order.
func (m *MultiController) Snapshot() []Status {
	var out []Status
	for _, s := range m.order {
		snap := m.ctls[s].Snapshot()
		for i := range snap {
			snap[i].Socket = s
		}
		out = append(out, snap...)
	}
	return out
}

// SetSink attaches one journal to every socket's loop, with each
// socket's events stamped via obs.TagSocket so traces stay
// attributable. Socket 0's stamp is the zero value, so a one-socket
// host journals exactly like a bare Controller.
func (m *MultiController) SetSink(sink obs.Sink) {
	for _, s := range m.order {
		m.ctls[s].SetSink(obs.TagSocket(sink, s))
	}
}

// RegisterMetrics registers every socket's metric families on one
// registry, distinguished by a socket="N" constant label. A set of one
// loop has nothing to tell apart and exports exactly like a bare
// Controller.
func (m *MultiController) RegisterMetrics(reg *telemetry.Registry) {
	if len(m.order) == 1 {
		m.ctls[m.order[0]].RegisterMetrics(reg)
		return
	}
	for _, s := range m.order {
		m.ctls[s].RegisterMetricsSocket(reg, s)
	}
}
