package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

// CoordinatorConfig tunes the control plane. The zero value gets
// production-shaped defaults.
type CoordinatorConfig struct {
	// HeartbeatExpiry is how long an agent may stay silent before the
	// coordinator marks it dead (default 10s). Every enroll, report,
	// events upload and placement poll counts as a sign of life.
	HeartbeatExpiry time.Duration
	// StreamingQuorum is the minimum number of alive agents that must
	// classify a same-named workload Streaming before the coordinator
	// hints the remaining replicas to cap at baseline (default 2).
	StreamingQuorum int
	// Now supplies the clock; tests inject a manual one (default
	// time.Now).
	Now func() time.Time
}

func (c *CoordinatorConfig) fill() {
	if c.HeartbeatExpiry <= 0 {
		c.HeartbeatExpiry = 10 * time.Second
	}
	if c.StreamingQuorum <= 0 {
		c.StreamingQuorum = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// agentRecord is the coordinator's view of one enrolled host.
type agentRecord struct {
	id         string
	name       string
	statusAddr string
	totalWays  int
	enrolledAt time.Time
	lastSeen   time.Time
	lastTick   int
	workloads  []WorkloadReport
	// Cumulative decision-event counts forwarded in this agent's
	// reports since enrollment.
	transitions  map[string]uint64
	phaseChanges uint64
	// eventsDropped is the agent streamer's cumulative drop counter as
	// of its latest flight-recorder upload.
	eventsDropped uint64
}

// Coordinator is the cluster control plane: the registry of agents,
// their latest reports, liveness tracking, hint computation, and fleet
// telemetry. All methods are safe for concurrent use — the HTTP
// handlers run on server goroutines while operators read State.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	agents  map[string]*agentRecord // by agent id
	byName  map[string]string       // agent name -> current id
	nextID  int
	reports int // total reports accepted; also the fleet x-axis
	// enrollments counts agent (re-)enrollments.
	enrollments int

	// Fleet-wide decision-event accumulation (across agent restarts —
	// a superseded record's counts stay in these totals).
	fleetTransitions map[string]uint64
	fleetPhases      uint64

	// Observability hooks, all optional.
	sink     obs.Sink
	recorder *flightrec.Store
	// self holds the coordinator's self-observability instruments. It
	// is an atomic pointer, not a field under mu, because the lock-wait
	// histogram must be reachable before the lock is acquired.
	self atomic.Pointer[coordSelf]

	// tenants is the bounded per-tenant time-series plane served at
	// /fleet/metrics (see fleetmetrics.go).
	tenants tenantTable

	// engine, when attached, turns the coordinator into a fleet
	// rebalancer: report-derived views feed it and /v1/placement serves
	// its directives.
	engine *placement.Engine
}

// coordSelf holds the coordinator's self-observability instruments:
// how the control plane itself performs, as opposed to what the fleet
// is doing. This is the baseline the scale-out work is gated on — you
// cannot shard what you have not measured.
type coordSelf struct {
	// ingest is per-endpoint request latency (decode + registry +
	// response), keyed by the short endpoint name.
	ingest map[string]*telemetry.Histogram
	// lockWait is how long handlers queue on the registry lock;
	// lockHold how long they keep it.
	lockWait *telemetry.Histogram
	lockHold *telemetry.Histogram
}

// RegisterSelfMetrics registers the coordinator's self-observability
// instruments on reg:
//
//	dcat_coord_ingest_seconds{endpoint}  per-endpoint request latency
//	dcat_coord_lock_wait_seconds        registry lock queueing time
//	dcat_coord_lock_hold_seconds        registry lock hold time
//
// Separate from RegisterMetrics so existing fleet-metric consumers see
// an unchanged exposition unless they opt in.
func (c *Coordinator) RegisterSelfMetrics(reg *telemetry.Registry) {
	self := &coordSelf{ingest: make(map[string]*telemetry.Histogram, 4)}
	for _, ep := range []string{"enroll", "report", "events", "placement"} {
		self.ingest[ep] = reg.Histogram("dcat_coord_ingest_seconds",
			"Coordinator ingest latency per protocol endpoint.",
			telemetry.DefLatencyBuckets, "endpoint", ep)
	}
	self.lockWait = reg.Histogram("dcat_coord_lock_wait_seconds",
		"Time protocol handlers spent queueing on the registry lock.",
		telemetry.DefLatencyBuckets)
	self.lockHold = reg.Histogram("dcat_coord_lock_hold_seconds",
		"Time protocol handlers held the registry lock.",
		telemetry.DefLatencyBuckets)
	c.self.Store(self)
}

// lockTimed acquires the registry lock, feeding the wait into the
// lock-wait histogram; the returned func releases it and feeds the
// hold time. With no self-metrics registered it degrades to a plain
// Lock/Unlock pair. Latencies use the wall clock, not cfg.Now — a
// test's fake clock should not flatten real contention.
func (c *Coordinator) lockTimed() func() {
	self := c.self.Load()
	if self == nil {
		c.mu.Lock()
		return c.mu.Unlock
	}
	start := time.Now()
	c.mu.Lock()
	acquired := time.Now()
	self.lockWait.Observe(acquired.Sub(start).Seconds())
	return func() {
		self.lockHold.Observe(time.Since(acquired).Seconds())
		c.mu.Unlock()
	}
}

// timed wraps one protocol handler with its ingest-latency histogram.
func (c *Coordinator) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		self := c.self.Load()
		if self == nil {
			h(w, r)
			return
		}
		start := time.Now()
		h(w, r)
		self.ingest[endpoint].Observe(time.Since(start).Seconds())
	}
}

// NewCoordinator builds an empty control plane.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg.fill()
	return &Coordinator{
		cfg:              cfg,
		agents:           make(map[string]*agentRecord),
		byName:           make(map[string]string),
		fleetTransitions: make(map[string]uint64),
		tenants:          newTenantTable(tenantRingSize, maxTenants),
	}
}

// SetSink installs a decision-trace sink for control-plane events
// (agent enrollments, hints issued). Nil disables tracing. Events are
// stamped with the accepted-report sequence number as their tick.
func (c *Coordinator) SetSink(s obs.Sink) {
	c.mu.Lock()
	c.sink = s
	c.mu.Unlock()
}

// SetRecorder installs the fleet flight recorder that /v1/events
// uploads append to. Nil disables durable recording: uploads are still
// acknowledged (so agents discard their buffers) but nothing is kept.
func (c *Coordinator) SetRecorder(store *flightrec.Store) {
	c.mu.Lock()
	c.recorder = store
	c.mu.Unlock()
}

// Recorder returns the installed flight-recorder store (nil when
// recording is disabled) — the query plane mounts endpoints over it.
func (c *Coordinator) Recorder() *flightrec.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorder
}

// SetPlacement attaches the fleet placement engine. Nil detaches it:
// /v1/placement then answers every poll with no directives, so agents
// need no reconfiguration when rebalancing is switched off.
func (c *Coordinator) SetPlacement(e *placement.Engine) {
	c.mu.Lock()
	c.engine = e
	c.mu.Unlock()
}

// Placement returns the attached engine (nil when rebalancing is off).
func (c *Coordinator) Placement() *placement.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engine
}

// placementViewsLocked projects the alive fleet into the engine's
// input: one AgentView per alive agent, keyed by the stable agent name
// (the same key flight-recorder records use, so the engine can match
// execution evidence).
func (c *Coordinator) placementViewsLocked() []placement.AgentView {
	now := c.cfg.Now()
	var views []placement.AgentView
	for _, rec := range c.agents {
		if !c.aliveLocked(rec, now) {
			continue
		}
		v := placement.AgentView{Agent: rec.name, TotalWays: rec.totalWays}
		for _, wl := range rec.workloads {
			v.Workloads = append(v.Workloads, placement.WorkloadView{
				Name:     wl.Name,
				Socket:   wl.Socket,
				Category: wl.Category,
				Ways:     wl.Ways,
				Baseline: wl.BaselineWays,
			})
		}
		views = append(views, v)
	}
	return views
}

// RegisterMetrics registers the coordinator's families on reg: the
// dcat_cluster_* view of /cluster; the dcat_fleet_* gauges (alive
// agents, allocated ways, and alive workloads per category, one family
// per state) and counters (reports, enrollments, forwarded transitions
// and phase changes); and each tenant's latest sample as dcat_tenant_*.
// Every family is computed at scrape time under c.mu, so gauges read the
// fleet as of the scrape and the report path records nothing for them.
func (c *Coordinator) RegisterMetrics(reg *telemetry.Registry) {
	type emitFunc = func(float64, ...string)
	// view registers a family computed from the /cluster snapshot.
	view := func(name, help, typ string, labels []string, collect func(st State, emit emitFunc)) {
		reg.Func(name, help, typ, labels, func(emit emitFunc) { collect(c.ClusterState(), emit) })
	}
	scalar := func(name, help, typ string, v func(st State) int) {
		view(name, help, typ, nil, func(st State, emit emitFunc) { emit(float64(v(st))) })
	}
	transitions := func(st State, emit emitFunc) {
		keys := make([]string, 0, len(st.Transitions))
		for k := range st.Transitions {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			from, to, _ := strings.Cut(k, "->") // Validate admits only From->To keys
			emit(float64(st.Transitions[k]), from, to)
		}
	}
	const (
		reportsHelp = "Statistics reports accepted from agents."
		transHelp   = "Category transitions forwarded by agents, summed fleet-wide."
		phasesHelp  = "Phase changes forwarded by agents, summed fleet-wide."
	)
	view("dcat_cluster_agents", "Enrolled agents by liveness.", "gauge", []string{"alive"}, func(st State, emit emitFunc) {
		emit(float64(st.AgentsAlive), "true")
		emit(float64(st.AgentsTotal-st.AgentsAlive), "false")
	})
	scalar("dcat_cluster_reports_total", reportsHelp, "counter", func(st State) int { return st.Reports })
	scalar("dcat_cluster_total_ways", "LLC ways across alive agents.", "gauge", func(st State) int { return st.TotalWays })
	scalar("dcat_cluster_allocated_ways", "LLC ways allocated to workloads across alive agents.", "gauge",
		func(st State) int { return st.AllocatedWays })
	view("dcat_cluster_agent_tick", "Latest controller tick each agent reported.", "gauge", []string{"agent", "alive"},
		func(st State, emit emitFunc) {
			for _, a := range st.Agents {
				emit(float64(a.Tick), a.Name, strconv.FormatBool(a.Alive))
			}
		})
	view("dcat_cluster_ways", "LLC ways each agent reported per workload.", "gauge", []string{"agent", "workload", "category"},
		func(st State, emit emitFunc) {
			for _, a := range st.Agents {
				for _, wl := range a.Workloads {
					emit(float64(wl.Ways), a.Name, wl.Name, wl.Category)
				}
			}
		})
	view("dcat_cluster_normalized_ipc", "Normalized IPC each agent reported per workload.", "gauge", []string{"agent", "workload"},
		func(st State, emit emitFunc) {
			for _, a := range st.Agents {
				for _, wl := range a.Workloads {
					emit(wl.NormIPC, a.Name, wl.Name)
				}
			}
		})
	view("dcat_cluster_state_transitions_total", transHelp, "counter", []string{"from", "to"}, transitions)
	scalar("dcat_cluster_phase_changes_total", phasesHelp, "counter", func(st State) int { return int(st.PhaseChanges) })

	scalar("dcat_fleet_agents_alive", "Agents alive as of the scrape.", "gauge", func(st State) int { return st.AgentsAlive })
	scalar("dcat_fleet_ways_allocated", "LLC ways allocated across alive agents.", "gauge",
		func(st State) int { return st.AllocatedWays })
	for s := core.State(0); int(s) < core.NumStates; s++ {
		scalar("dcat_fleet_category_"+s.String(), "Alive agents' workloads currently classified "+s.String()+".", "gauge",
			func(st State) int { return st.aliveIn(s.String()) })
	}
	scalar("dcat_fleet_reports_total", reportsHelp, "counter", func(st State) int { return st.Reports })
	c.registerLocked(reg, "dcat_fleet_enrollments_total", "Agent enrollments, including re-enrollments after restarts.",
		"counter", nil, func(emit emitFunc) { emit(float64(c.enrollments)) })
	view("dcat_fleet_state_transitions_total", transHelp, "counter", []string{"from", "to"}, transitions)
	scalar("dcat_fleet_phase_changes_total", phasesHelp, "counter", func(st State) int { return int(st.PhaseChanges) })
	c.registerTenantMetrics(reg)
}

// registerLocked registers a Func family whose collector runs under
// c.mu, taken after the registry has released its own lock.
func (c *Coordinator) registerLocked(reg *telemetry.Registry, name, help, typ string, labels []string,
	collect func(emit func(float64, ...string))) {
	reg.Func(name, help, typ, labels, func(emit func(float64, ...string)) {
		c.mu.Lock()
		defer c.mu.Unlock()
		collect(emit)
	})
}

// AgentState is one agent's row in the cluster view.
type AgentState struct {
	ID         string           `json:"id"`
	Name       string           `json:"name"`
	StatusAddr string           `json:"status_addr,omitempty"`
	Alive      bool             `json:"alive"`
	LastSeen   time.Time        `json:"last_seen"`
	Tick       int              `json:"tick"`
	TotalWays  int              `json:"total_ways"`
	Workloads  []WorkloadReport `json:"workloads"`
	// Transitions and PhaseChanges are this agent's cumulative
	// forwarded decision-event counts ("From->To" keys).
	Transitions  map[string]uint64 `json:"transitions,omitempty"`
	PhaseChanges uint64            `json:"phase_changes,omitempty"`
	// EventsDropped is the agent streamer's cumulative count of
	// decision events its bounded buffer discarded before upload.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

// State is the cluster-wide snapshot served at /cluster.
type State struct {
	Version       int          `json:"version"`
	AgentsAlive   int          `json:"agents_alive"`
	AgentsTotal   int          `json:"agents_total"`
	TotalWays     int          `json:"total_ways"`     // across alive agents
	AllocatedWays int          `json:"allocated_ways"` // across alive agents
	Reports       int          `json:"reports"`
	Agents        []AgentState `json:"agents"`
	// Transitions and PhaseChanges aggregate every agent's forwarded
	// decision events fleet-wide, surviving agent restarts.
	Transitions  map[string]uint64 `json:"transitions,omitempty"`
	PhaseChanges uint64            `json:"phase_changes,omitempty"`
}

// aliveIn counts alive agents' workloads in the named category.
func (st State) aliveIn(category string) int {
	n := 0
	for _, a := range st.Agents {
		for _, wl := range a.Workloads {
			if a.Alive && wl.Category == category {
				n++
			}
		}
	}
	return n
}

// ClusterState snapshots the fleet, computing liveness against the
// configured clock. Agents are sorted by name for stable output.
func (c *Coordinator) ClusterState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	st := State{Version: ProtocolVersion, Reports: c.reports, PhaseChanges: c.fleetPhases}
	if len(c.fleetTransitions) > 0 {
		st.Transitions = make(map[string]uint64, len(c.fleetTransitions))
		for k, v := range c.fleetTransitions {
			st.Transitions[k] = v
		}
	}
	for _, rec := range c.agents {
		alive := c.aliveLocked(rec, now)
		as := AgentState{
			ID:            rec.id,
			Name:          rec.name,
			StatusAddr:    rec.statusAddr,
			Alive:         alive,
			LastSeen:      rec.lastSeen,
			Tick:          rec.lastTick,
			TotalWays:     rec.totalWays,
			Workloads:     append([]WorkloadReport(nil), rec.workloads...),
			PhaseChanges:  rec.phaseChanges,
			EventsDropped: rec.eventsDropped,
		}
		if len(rec.transitions) > 0 {
			as.Transitions = make(map[string]uint64, len(rec.transitions))
			for k, v := range rec.transitions {
				as.Transitions[k] = v
			}
		}
		st.Agents = append(st.Agents, as)
		st.AgentsTotal++
		if alive {
			st.AgentsAlive++
			st.TotalWays += rec.totalWays
			for _, w := range rec.workloads {
				st.AllocatedWays += w.Ways
			}
		}
	}
	sort.Slice(st.Agents, func(i, j int) bool { return st.Agents[i].Name < st.Agents[j].Name })
	return st
}

func (c *Coordinator) aliveLocked(rec *agentRecord, now time.Time) bool {
	return now.Sub(rec.lastSeen) <= c.cfg.HeartbeatExpiry
}

// Handler returns the protocol endpoint tree (mount at "/").
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathEnroll, c.timed("enroll", c.handleEnroll))
	mux.HandleFunc(PathReport, c.timed("report", c.handleReport))
	mux.HandleFunc(PathEvents, c.timed("events", c.handleEvents))
	mux.HandleFunc(PathPlacement, c.timed("placement", c.handlePlacement))
	return mux
}

// readBody enforces method and size limits; nil means the response has
// already been written.
func readBody(w http.ResponseWriter, r *http.Request) []byte {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: %s not allowed", r.Method))
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: reading body: %w", err))
		return nil
	}
	if len(data) > MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("cluster: body exceeds %d bytes", MaxBodyBytes))
		return nil
	}
	return data
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleEnroll(w http.ResponseWriter, r *http.Request) {
	data := readBody(w, r)
	if data == nil {
		return
	}
	req, err := DecodeEnrollRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	unlock := c.lockTimed()
	now := c.cfg.Now()
	// Re-enrollment under the same name supersedes the old record: the
	// agent restarted (or lost us and came back) and its previous id is
	// dead.
	if oldID, ok := c.byName[req.Agent]; ok {
		delete(c.agents, oldID)
	}
	c.nextID++
	id := fmt.Sprintf("agent-%d", c.nextID)
	rec := &agentRecord{
		id:         id,
		name:       req.Agent,
		statusAddr: req.StatusAddr,
		totalWays:  req.TotalWays,
		enrolledAt: now,
		lastSeen:   now,
	}
	for _, ws := range req.Workloads {
		rec.workloads = append(rec.workloads, WorkloadReport{
			Name:         ws.Name,
			Category:     "Unknown",
			Ways:         ws.BaselineWays,
			BaselineWays: ws.BaselineWays,
		})
	}
	c.agents[id] = rec
	c.byName[req.Agent] = id
	c.enrollments++
	if c.sink != nil {
		c.sink.Emit(obs.Event{
			Tick:     c.reports,
			Kind:     obs.KindAgentEnrolled,
			Workload: req.Agent,
			NewWays:  req.TotalWays,
			Reason:   "agent enrolled with the coordinator",
		})
	}
	unlock()
	writeJSON(w, EnrollResponse{Version: ProtocolVersion, AgentID: id})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	data := readBody(w, r)
	if data == nil {
		return
	}
	req, err := DecodeReportRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	unlock := c.lockTimed()
	rec, ok := c.agents[req.AgentID]
	if !ok {
		unlock()
		writeError(w, http.StatusNotFound, ErrUnknownAgent)
		return
	}
	rec.lastSeen = c.cfg.Now()
	rec.lastTick = req.Tick
	rec.workloads = append(rec.workloads[:0], req.Workloads...)
	c.reports++
	c.sampleTenantsLocked(rec, req.Tick)
	if req.Events != nil {
		c.absorbEventsLocked(rec, req.Events)
	}
	// Placement is evaluated on every accepted report, outside the
	// registry lock — the engine reads the flight recorder (disk I/O)
	// while scoring.
	engine := c.engine
	var views []placement.AgentView
	if engine != nil {
		views = c.placementViewsLocked()
	}
	hints := c.hintsForLocked(rec)
	if c.sink != nil {
		// hints[i] corresponds to rec.workloads[i], so the hint event
		// can carry the workload's socket for topology-aware traces.
		for i, h := range hints {
			if h.MaxWays > 0 {
				c.sink.Emit(obs.Event{
					Tick:     c.reports,
					Kind:     obs.KindHintIssued,
					Workload: h.Workload,
					Socket:   rec.workloads[i].Socket,
					NewWays:  h.MaxWays,
					Reason:   h.Reason,
				})
			}
		}
	}
	unlock()
	if engine != nil {
		engine.Evaluate(views)
	}
	writeJSON(w, ReportResponse{Version: ProtocolVersion, Hints: hints})
}

// handlePlacement serves an agent's directive poll: acks first (they
// finish previously polled moves), then whatever is pending for that
// agent. With no engine attached the poll is a cheap no-op, so agents
// can always run with placement polling on.
func (c *Coordinator) handlePlacement(w http.ResponseWriter, r *http.Request) {
	data := readBody(w, r)
	if data == nil {
		return
	}
	req, err := DecodePlacementRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	unlock := c.lockTimed()
	rec, ok := c.agents[req.AgentID]
	if !ok {
		unlock()
		writeError(w, http.StatusNotFound, ErrUnknownAgent)
		return
	}
	rec.lastSeen = c.cfg.Now()
	name := rec.name
	engine := c.engine
	unlock()

	resp := PlacementResponse{Version: ProtocolVersion}
	if engine != nil {
		// The X-Dcat-Trace header names the execution span behind the
		// acks; a missing or malformed header degrades to "no context".
		trace, _ := obs.ParseTraceContext(r.Header.Get(TraceHeader))
		engine.Ack(name, req.Acks, trace)
		resp.Directives = engine.Directives(name)
	}
	writeJSON(w, resp)
}

// handleEvents ingests one flight-recorder upload. The store append
// happens outside the coordinator lock — disk I/O must not block
// enrollments and reports — and the store's own (agent, epoch, seq)
// dedup makes retried batches idempotent. Without a recorder the
// upload is acknowledged and discarded, so agents still empty their
// buffers when durable recording is switched off.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	data := readBody(w, r)
	if data == nil {
		return
	}
	req, err := DecodeEventsRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	unlock := c.lockTimed()
	rec, ok := c.agents[req.AgentID]
	if !ok {
		unlock()
		writeError(w, http.StatusNotFound, ErrUnknownAgent)
		return
	}
	rec.lastSeen = c.cfg.Now()
	rec.eventsDropped = req.Dropped
	// Records are keyed by the stable agent name, not the per-
	// enrollment id, so a host's history survives re-enrollments.
	name := rec.name
	store := c.recorder
	unlock()

	next := req.FirstSeq + uint64(len(req.Events))
	if store != nil {
		next, err = store.Append(name, req.Epoch, req.FirstSeq, req.Events, req.Dropped)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, EventsResponse{Version: ProtocolVersion, NextSeq: next})
}

// absorbEventsLocked folds one report's event summary into the
// per-agent record and the fleet totals.
func (c *Coordinator) absorbEventsLocked(rec *agentRecord, ev *EventSummary) {
	if len(ev.Transitions) > 0 && rec.transitions == nil {
		rec.transitions = make(map[string]uint64, len(ev.Transitions))
	}
	for k, v := range ev.Transitions {
		rec.transitions[k] += v
		c.fleetTransitions[k] += v
	}
	rec.phaseChanges += ev.PhaseChanges
	c.fleetPhases += ev.PhaseChanges
}

// workloadLocus keys fleet-wide workload counting by replica name AND
// the LLC domain it runs on — the topology-aware refinement.
type workloadLocus struct {
	name   string
	socket int
}

// hintsForLocked computes the coordinator's advice for one agent from
// the fleet-wide view — the global perspective Com-CAS and LFOC argue
// for. Current policy: when a quorum of alive agents classify a
// same-named workload (a replicated service) as Streaming, the
// remaining replicas are hinted to cap at their baseline instead of
// probing up to streaming_mult x baseline on every host independently.
// The count is keyed by (workload, socket): replicas on a hot LLC
// domain reach quorum and get capped while the same service's replicas
// on a quiet socket keep probing — the coordinator is no longer
// topology-blind. Single-socket fleets report socket 0 everywhere, so
// the policy reduces to the old per-name one. Hints always cover every
// workload (MaxWays 0 = no cap) so a cleared condition also clears the
// cap on the agent.
func (c *Coordinator) hintsForLocked(target *agentRecord) []AllocationHint {
	now := c.cfg.Now()
	streaming := make(map[workloadLocus]int)
	for _, rec := range c.agents {
		if !c.aliveLocked(rec, now) {
			continue
		}
		for _, wl := range rec.workloads {
			if wl.Category == "Streaming" {
				streaming[workloadLocus{wl.Name, wl.Socket}]++
			}
		}
	}
	hints := make([]AllocationHint, 0, len(target.workloads))
	for _, wl := range target.workloads {
		h := AllocationHint{Workload: wl.Name}
		if n := streaming[workloadLocus{wl.Name, wl.Socket}]; n >= c.cfg.StreamingQuorum {
			h.MaxWays = wl.BaselineWays
			h.Reason = fmt.Sprintf("workload %q is Streaming on %d agents (socket %d)",
				wl.Name, n, wl.Socket)
		}
		hints = append(hints, h)
	}
	return hints
}
