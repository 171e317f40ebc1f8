package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// Closed-form tenant models for ctl-phases. There is no cache behind
// them: each tenant's LLC miss rate and CPI are functions of the ways
// the controller currently grants it, which is all the controller can
// observe anyway. Every tenant alternates two phases, with a period of
// phaseScale*(15+3i) ticks for tenant i, so the nine phase clocks drift
// against each other and the controller never sees the same fleet state
// twice in a row. The seed perturbs working sets, access intensities and
// the per-tick jitter.

// phaseModel is one phase of one tenant.
type phaseModel struct {
	instr  float64 // instructions retired per tick
	mapi   float64 // L1 references per instruction
	l1miss float64 // share of L1 references that reach the LLC
	// The LLC miss rate falls linearly from ceil at zero ways to floor
	// once wsWays are granted (a working set that fits).
	wsWays, floor, ceil float64
	baseCPI, mlp        float64
}

func (p phaseModel) missRate(ways int) float64 {
	m := p.ceil * (1 - float64(ways)/p.wsWays)
	if m < p.floor {
		m = p.floor
	}
	return m
}

type tenantModel struct {
	name   string
	cores  []int
	period int
	phases [2]phaseModel
}

// tenantFleet is the nine modelled tenants of one controller.
type tenantFleet struct {
	tenants []tenantModel
	rng     *rand.Rand
}

const (
	// phaseScale stretches the issue's 15+3i-tick phase periods. Every
	// phase change ends in resctrl schemata writes, and the driver's runs
	// keep the mock tree inside the checkout (ext4 here), where one
	// replace-by-truncate write costs ~150us against a 7us tick: at scale
	// 1 the writes were ~90% of the run, at 20 still 13 of 22us per tick,
	// and the kernel's I/O threads on the second vCPU slowed the ticks
	// beside them by 1.7x in stretches that came and went — the tick
	// median flipped between two values from run to run. At 100 (14
	// applies and 3.5 phase changes per kilotick) the writes are 16% of
	// the run and ten runs agree within a few percent, on ext4 and tmpfs.
	phaseScale    = 100
	llcHitCycles  = 42
	dramCycles    = 220
	modelBaseline = 2
)

func newTenantFleet(seed int64) *tenantFleet {
	rng := rand.New(rand.NewSource(seed))
	// vary scales a parameter by up to ±1% from the seed: enough to change
	// every counter value, too little to change how much work a run is.
	vary := func(v float64) float64 { return v * (0.99 + 0.02*rng.Float64()) }
	sensitive := func(wsWays, mapi float64) phaseModel {
		return phaseModel{instr: 4e6, mapi: vary(mapi), l1miss: 0.2, wsWays: vary(wsWays),
			floor: 0.01, ceil: 0.9, baseCPI: 0.6, mlp: 1.5}
	}
	streaming := func(mapi float64) phaseModel {
		// A working set far beyond the cache: ways make no difference.
		return phaseModel{instr: 4e6, mapi: vary(mapi), l1miss: 0.5, wsWays: 400,
			floor: 0.9, ceil: 0.95, baseCPI: 0.5, mlp: 6}
	}
	idle := phaseModel{instr: 2000, mapi: 0.25, l1miss: 0.1, wsWays: 1, floor: 0.01, ceil: 0.5, baseCPI: 1, mlp: 1}

	shapes := [][2]phaseModel{
		{sensitive(3, 0.30), sensitive(5, 0.45)},
		{sensitive(6, 0.25), sensitive(2, 0.40)},
		{sensitive(10, 0.35), sensitive(4, 0.22)},
		{streaming(0.40), streaming(0.60)},
		{sensitive(4, 0.30), sensitive(0.8, 0.18)},
		{idle, sensitive(5, 0.35)},
		{streaming(0.45), sensitive(6, 0.28)},
		{sensitive(0.8, 0.20), sensitive(0.8, 0.30)},
		{idle, idle},
	}
	f := &tenantFleet{rng: rng}
	for i, ph := range shapes {
		f.tenants = append(f.tenants, tenantModel{
			name:   fmt.Sprintf("tenant%d", i),
			cores:  []int{2 * i, 2*i + 1},
			period: phaseScale * (15 + 3*i),
			phases: ph,
		})
	}
	return f
}

func (f *tenantFleet) targets() []core.Target {
	out := make([]core.Target, len(f.tenants))
	for i, t := range f.tenants {
		out[i] = core.Target{Name: t.name, Cores: t.cores, BaselineWays: modelBaseline}
	}
	return out
}

// step advances every tenant by one controller period at the ways it
// currently holds and adds the resulting counts to its lead core's
// counter bank.
func (f *tenantFleet) step(tick int, ways interface{ Ways(string) int }, file *perf.File) {
	for i := range f.tenants {
		t := &f.tenants[i]
		p := t.phases[(tick/t.period)%2]
		// ±1% measurement jitter: far below the 10% phase threshold.
		instr := p.instr * (0.99 + 0.02*f.rng.Float64())
		l1ref := instr * p.mapi
		llcref := l1ref * p.l1miss
		m := p.missRate(ways.Ways(t.name))
		cpi := p.baseCPI + p.mapi*p.l1miss*(llcHitCycles+(dramCycles-llcHitCycles)*m)/p.mlp
		bank := file.Core(t.cores[0])
		bank.Add(perf.L1Hits, uint64(l1ref-llcref))
		bank.Add(perf.L1Misses, uint64(llcref))
		bank.Add(perf.LLCReferences, uint64(llcref))
		bank.Add(perf.LLCMisses, uint64(llcref*m))
		bank.Add(perf.RetiredInstructions, uint64(instr))
		bank.Add(perf.UnhaltedCycles, uint64(instr*cpi))
	}
}
