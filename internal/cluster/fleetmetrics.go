package cluster

import (
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// The fleet time-series plane: a bounded per-tenant ring at the
// coordinator that samples IPC/MPKI/ways/socket/category from every
// accepted report, so operators and experiments see tenant
// trajectories instead of only event streams. Memory is strictly
// bounded: at most maxTenants rings of tenantRingSize samples each;
// tenants past the cap are counted, never stored, so a churning fleet
// cannot grow the plane without bound. Served at
// /fleet/metrics (JSON), as the dcat_tenant_* gauges on the
// coordinator's registry, and by `dcat-trace top`.

// TenantSample is one accepted report's observation of one workload.
type TenantSample struct {
	// Report is the coordinator's accepted-report sequence number (the
	// fleet x-axis); Tick the reporting controller's local tick.
	Report int     `json:"report"`
	Tick   int     `json:"tick"`
	Unix   int64   `json:"unix"`
	IPC    float64 `json:"ipc"`
	// MPKI is LLC misses per kilo-instruction, derived from the
	// report's MAPI x MissRate x 1000.
	MPKI     float64 `json:"mpki"`
	Ways     int     `json:"ways"`
	Socket   int     `json:"socket"`
	Category string  `json:"category"`
	// Policy is the allocation policy the reporting controller ran
	// ("" from pre-policy agents).
	Policy string `json:"policy,omitempty"`
}

// TenantSeries is one tenant's ring, oldest sample first.
type TenantSeries struct {
	Agent    string         `json:"agent"`
	Workload string         `json:"workload"`
	Samples  []TenantSample `json:"samples"`
}

// TenantMetrics is the /fleet/metrics JSON document.
type TenantMetrics struct {
	// RingSize and MaxTenants document the plane's memory bound:
	// at most MaxTenants x RingSize samples are ever held.
	RingSize   int `json:"ring_size"`
	MaxTenants int `json:"max_tenants"`
	// Overflow counts samples discarded because the tenant cap was
	// reached (the tenants themselves are unlisted).
	Overflow uint64         `json:"overflow,omitempty"`
	Series   []TenantSeries `json:"series"`
}

// The plane's memory bound: samples kept per (agent, workload) pair,
// and pairs that get a ring.
const (
	tenantRingSize = 256
	maxTenants     = 1024
)

type tenantKey struct {
	agent    string
	workload string
}

// tenantRing is one tenant's bounded sample history.
type tenantRing struct {
	buf   []TenantSample
	next  int
	count int
}

func (r *tenantRing) push(s TenantSample) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// snapshot returns the ring's samples oldest-first.
func (r *tenantRing) snapshot() []TenantSample {
	out := make([]TenantSample, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// tenantTable is the coordinator-side store. It is guarded by the
// coordinator's mu (sampling happens inside handleReport's critical
// section: two slice writes per workload, no allocation once a ring
// exists).
type tenantTable struct {
	ringSize   int
	maxTenants int
	rings      map[tenantKey]*tenantRing
	order      []tenantKey
	overflow   uint64
}

func newTenantTable(ringSize, maxTenants int) tenantTable {
	return tenantTable{
		ringSize:   ringSize,
		maxTenants: maxTenants,
		rings:      make(map[tenantKey]*tenantRing),
	}
}

func (t *tenantTable) sample(agent, workload string, s TenantSample) {
	k := tenantKey{agent: agent, workload: workload}
	r := t.rings[k]
	if r == nil {
		if len(t.rings) >= t.maxTenants {
			t.overflow++
			return
		}
		r = &tenantRing{buf: make([]TenantSample, t.ringSize)}
		t.rings[k] = r
		t.order = append(t.order, k)
	}
	r.push(s)
}

// sortedKeys lists the tenants sorted by agent then workload, for
// stable output.
func (t *tenantTable) sortedKeys() []tenantKey {
	keys := append([]tenantKey(nil), t.order...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].agent != keys[j].agent {
			return keys[i].agent < keys[j].agent
		}
		return keys[i].workload < keys[j].workload
	})
	return keys
}

// snapshotSorted renders the whole table in sortedKeys order.
func (t *tenantTable) snapshotSorted() TenantMetrics {
	m := TenantMetrics{RingSize: t.ringSize, MaxTenants: t.maxTenants, Overflow: t.overflow}
	for _, k := range t.sortedKeys() {
		m.Series = append(m.Series, TenantSeries{
			Agent:    k.agent,
			Workload: k.workload,
			Samples:  t.rings[k].snapshot(),
		})
	}
	return m
}

// sampleTenantsLocked feeds one accepted report into the time-series
// plane. Caller holds c.mu.
func (c *Coordinator) sampleTenantsLocked(rec *agentRecord, tick int) {
	report := c.reports
	unix := c.cfg.Now().Unix()
	for _, wl := range rec.workloads {
		c.tenants.sample(rec.name, wl.Name, TenantSample{
			Report:   report,
			Tick:     tick,
			Unix:     unix,
			IPC:      wl.IPC,
			MPKI:     wl.MAPI * wl.MissRate * 1000,
			Ways:     wl.Ways,
			Socket:   wl.Socket,
			Category: wl.Category,
			Policy:   wl.Policy,
		})
	}
}

// TenantMetricsSnapshot returns the per-tenant time-series plane — the
// /fleet/metrics JSON document.
func (c *Coordinator) TenantMetricsSnapshot() TenantMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenants.snapshotSorted()
}

// registerTenantMetrics registers each tenant's latest sample as gauges
// (dcat_tenant_ipc/mpki/ways, labeled by agent, workload, socket,
// category, policy) plus the overflow counter — the Prometheus face of
// /fleet/metrics. Collectors read one sample per ring under c.mu.
func (c *Coordinator) registerTenantMetrics(reg *telemetry.Registry) {
	labels := []string{"agent", "workload", "socket", "category", "policy"}
	for _, f := range []struct {
		name, help string
		value      func(TenantSample) float64
	}{
		{"dcat_tenant_ipc", "Latest reported IPC per tenant.", func(s TenantSample) float64 { return s.IPC }},
		{"dcat_tenant_mpki", "Latest reported LLC misses per kilo-instruction per tenant.", func(s TenantSample) float64 { return s.MPKI }},
		{"dcat_tenant_ways", "Latest reported LLC way allocation per tenant.", func(s TenantSample) float64 { return float64(s.Ways) }},
	} {
		c.registerLocked(reg, f.name, f.help, "gauge", labels, func(emit func(float64, ...string)) {
			for _, k := range c.tenants.sortedKeys() {
				r := c.tenants.rings[k] // created with its first sample
				last := r.buf[(r.next-1+len(r.buf))%len(r.buf)]
				emit(f.value(last), k.agent, k.workload, strconv.Itoa(last.Socket), last.Category, last.Policy)
			}
		})
	}
	c.registerLocked(reg, "dcat_tenant_overflow_total", "Samples dropped because the tenant cap was reached.",
		"counter", nil, func(emit func(float64, ...string)) {
			if c.tenants.overflow > 0 {
				emit(float64(c.tenants.overflow))
			}
		})
}
