package workload

import "fmt"

// Modulated wraps a generator and scales its memory intensity by a
// load level that changes over time — the simulator-side image of an
// RPS curve hitting a request-serving tenant. Level 1 is the base
// workload; 2 is a traffic spike issuing twice the memory accesses per
// instruction; 0 is an idle trough (the host skips access generation
// entirely for that interval, as for Idle).
//
// Because the dCat controller's phase signal is exactly memory
// accesses per instruction (§3.3), a level change larger than the
// configured PhaseThr is a phase change: arrival curves drive the
// controller's phase machinery through the same counters a real load
// balancer would, with no simulator back-channel.
//
// The level function is sampled once per Tick (controller interval),
// so within an interval the workload is stationary — matching how the
// host hoists Params at interval start.
type Modulated struct {
	base  Generator
	level func(tick int) float64
	tick  int
	cur   float64
}

// NewModulated wraps base so its accesses-per-instruction scale with
// level(tick). level is called with 0 immediately (the first
// interval's load) and then once per Tick with an increasing tick.
// Negative levels are rejected at sample time by clamping to 0; levels
// that would push accesses/instr beyond the Params ceiling of 4 are
// clamped down to it.
func NewModulated(base Generator, level func(tick int) float64) (*Modulated, error) {
	if base == nil || level == nil {
		return nil, fmt.Errorf("workload: modulated needs a base generator and a level curve")
	}
	m := &Modulated{base: base, level: level}
	m.cur = clampLevel(level(0))
	return m, nil
}

func clampLevel(l float64) float64 {
	if l < 0 {
		return 0
	}
	return l
}

func (m *Modulated) Name() string { return m.base.Name() }

// Params scales the base intensity by the current level. MLP and base
// CPI are properties of the code, not the request rate, and stay put.
func (m *Modulated) Params() Params {
	p := m.base.Params()
	p.AccessesPerInstr *= m.cur
	if p.AccessesPerInstr > 4 {
		p.AccessesPerInstr = 4
	}
	return p
}

func (m *Modulated) NextLine() uint64 { return m.base.NextLine() }

// Tick advances the base workload and samples the next interval's
// load level.
func (m *Modulated) Tick() {
	m.base.Tick()
	m.tick++
	m.cur = clampLevel(m.level(m.tick))
}

// WorkingSetBytes implements Sized when the base does.
func (m *Modulated) WorkingSetBytes() uint64 {
	if s, ok := m.base.(Sized); ok {
		return s.WorkingSetBytes()
	}
	return 0
}

// Release implements Releaser when the base does.
func (m *Modulated) Release() {
	if r, ok := m.base.(Releaser); ok {
		r.Release()
	}
}
