package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/flightrec"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

// The fleet rig assembles coordinator + flight recorder exactly as
// cmd/dcat-coord does with -recorder-dir (journal, RegisterMetrics,
// RegisterSelfMetrics, store.RegisterMetrics, the recorder-backed sink)
// and, for fleet-mixed, the placement engine as -placement wires it. It
// is served by httptest.NewServer on loopback and driven by at most two
// client connections.
const (
	fleetAgents    = 32
	fleetWorkloads = 8
	fleetBatch     = 32 // events per upload
	fleetTotalWays = 20
	// fleetVariants is how many distinct pre-generated reports and event
	// batches each agent cycles through.
	fleetVariants = 4
	// coordEpoch stands in for the wall-clock epoch dcat-coord stamps its
	// own recorder stream with: fixed, so record contents depend on the
	// seed alone.
	coordEpoch = 1
	agentEpoch = 1
)

type fleetRig struct {
	rc      *runCtx
	coord   *cluster.Coordinator
	store   *flightrec.Store
	engine  *placement.Engine // nil unless placement is on
	reg     *telemetry.Registry
	rpc     *cluster.RPCMetrics
	srv     *httptest.Server
	clients []*cluster.Client
	agents  []*benchAgent
	// payload fingerprints every generated request, so "same seed, same
	// inputs" is part of the digest.
	payload hash.Hash
}

// benchAgent is one played agent: its enrollment, pre-generated
// request variants and upload cursor.
type benchAgent struct {
	name    string
	id      string
	vms     []string
	reports [fleetVariants]cluster.ReportRequest
	batches [fleetVariants][]obs.Event
	tick    int
	nextSeq uint64
}

type fleetOptions struct {
	placement       bool
	segmentMaxBytes int64
	agents          int
}

func newFleetRig(rc *runCtx, opt fleetOptions) (*fleetRig, error) {
	r := &fleetRig{rc: rc, payload: sha256.New()}
	r.coord = cluster.NewCoordinator(cluster.CoordinatorConfig{})
	journal := obs.NewJournal(obs.DefaultJournalSize)
	r.reg = telemetry.NewRegistry()
	r.coord.RegisterMetrics(r.reg)
	r.coord.RegisterSelfMetrics(r.reg)
	store, err := flightrec.Open(flightrec.Config{
		Dir:             filepath.Join(rc.dir, "recorder"),
		SegmentMaxBytes: opt.segmentMaxBytes,
		// Nothing may be pruned during a run: verification counts every
		// record the generator sent.
		MaxSegments: 1 << 16,
	})
	if err != nil {
		return nil, err
	}
	r.store = store
	store.RegisterMetrics(r.reg)
	r.coord.SetRecorder(store)
	sink := obs.Multi(journal, flightrec.NewSink(store, "coord", coordEpoch))
	r.coord.SetSink(sink)
	opts := httpstatus.Options{Journal: journal, Metrics: r.reg, Tenants: r.coord, Recorder: store}
	if opt.placement {
		r.engine = placement.NewEngine(placement.Config{
			Cooldown:      5,
			VerifyTimeout: 5,
			Recorder:      store,
			Trace:         obs.NewIDGen(uint64(rc.cfg.Seed)),
		})
		r.engine.SetSink(sink)
		r.coord.SetPlacement(r.engine)
		opts.Placement = r.engine
	}
	status := httpstatus.ClusterHandlerOpts(r.coord, opts)
	mux := http.NewServeMux()
	mux.Handle("/v1/", r.coord.Handler())
	mux.Handle("/cluster", status)
	mux.Handle("/cluster/", status)
	mux.Handle("/debug/", status)
	mux.Handle("/fleet/", status)
	var handler http.Handler = mux
	if rc.wrap {
		handler = newSpanHandler(mux, rc.tr, map[string][2]string{
			cluster.PathReport:    {"cluster", "handler_report"},
			cluster.PathEvents:    {"cluster", "handler_events"},
			cluster.PathPlacement: {"cluster", "handler_placement"},
			"/fleet/explain":      {"httpstatus", "explain"},
			"/fleet/events":       {"httpstatus", "events"},
			"/fleet/trace":        {"httpstatus", "trace"},
			"/fleet/metrics":      {"httpstatus", "metrics"},
			"/cluster":            {"httpstatus", "cluster"},
		})
	}
	r.srv = httptest.NewServer(handler)

	r.rpc = cluster.NewRPCMetrics(telemetry.NewRegistry())
	for i := 0; i < 2; i++ {
		c, err := cluster.NewClient(cluster.ClientConfig{
			BaseURL:    r.srv.URL,
			Timeout:    10 * time.Second,
			Seed:       rc.cfg.Seed + int64(i),
			HTTPClient: r.httpClient(),
			Metrics:    r.rpc,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}

	rng := rand.New(rand.NewSource(rc.cfg.Seed))
	for i := 0; i < opt.agents; i++ {
		a := newBenchAgent(rng, fmt.Sprintf("agent-%02d", i), "vm")
		enc, _ := json.Marshal(a.reports)
		r.payload.Write(enc)
		enc, _ = json.Marshal(a.batches)
		r.payload.Write(enc)
		req := &cluster.EnrollRequest{Version: cluster.ProtocolVersion, Agent: a.name, TotalWays: fleetTotalWays}
		for _, vm := range a.vms {
			req.Workloads = append(req.Workloads, cluster.WorkloadSpec{Name: vm, BaselineWays: 2})
		}
		resp, err := r.clients[i%2].Enroll(context.Background(), req)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("enrolling %s: %w", a.name, err)
		}
		a.id = resp.AgentID
		for v := range a.reports {
			a.reports[v].AgentID = a.id
		}
		r.agents = append(r.agents, a)
	}
	return r, nil
}

// httpClient returns a client that keeps exactly one connection: the
// two generator goroutines are the two connections the rules allow.
func (r *fleetRig) httpClient() *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	if r.rc.wrap {
		rt = spanTransport{next: rt}
	}
	return &http.Client{Transport: rt}
}

func (r *fleetRig) close() {
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	if r.store != nil {
		r.store.Close()
		r.store = nil
	}
}

// controllerKinds are the event kinds a host's dCat loop emits — what
// agents stream to the recorder.
var controllerKinds = []obs.Kind{
	obs.KindPhaseChange, obs.KindStateTransition, obs.KindWayGrant,
	obs.KindWayReclaim, obs.KindTableHit, obs.KindBaselineSet,
}

// reportCategories never includes Streaming: a Streaming quorum would
// make the coordinator emit hint events into the recorder, and the
// record count would stop being a function of what the generator sent.
var reportCategories = []string{"Keeper", "Donor", "Receiver", "Unknown"}

// newBenchAgent draws one agent's request variants from rng. vmPrefix
// keeps live and pre-loaded workload names disjoint.
func newBenchAgent(rng *rand.Rand, name, vmPrefix string) *benchAgent {
	a := &benchAgent{name: name}
	for w := 0; w < fleetWorkloads; w++ {
		a.vms = append(a.vms, fmt.Sprintf("%s-%s-%d", vmPrefix, name, w))
	}
	for v := 0; v < fleetVariants; v++ {
		rep := cluster.ReportRequest{Version: cluster.ProtocolVersion}
		for w, vm := range a.vms {
			// Four workloads per socket at 2–3 ways each: both sockets keep
			// a wide free pool, so placement scores but never issues.
			rep.Workloads = append(rep.Workloads, cluster.WorkloadReport{
				Name:         vm,
				Category:     reportCategories[rng.Intn(len(reportCategories))],
				Ways:         2 + rng.Intn(2),
				BaselineWays: 2,
				IPC:          0.5 + rng.Float64(),
				NormIPC:      0.9 + 0.2*rng.Float64(),
				MissRate:     rng.Float64() * 0.4,
				MAPI:         0.2 + 0.3*rng.Float64(),
				Socket:       w % 2,
				Policy:       "reactive",
			})
		}
		rep.Events = &cluster.EventSummary{
			Transitions: map[string]uint64{
				obs.TransitionKey("Keeper", "Unknown"):   uint64(1 + rng.Intn(3)),
				obs.TransitionKey("Unknown", "Receiver"): uint64(rng.Intn(3)),
				obs.TransitionKey("Receiver", "Keeper"):  uint64(rng.Intn(2)),
			},
			PhaseChanges: uint64(rng.Intn(2)),
		}
		a.reports[v] = rep
		a.batches[v] = genEvents(rng, a.vms, fleetBatch)
	}
	return a
}

func genEvents(rng *rand.Rand, vms []string, n int) []obs.Event {
	out := make([]obs.Event, n)
	for i := range out {
		vm := rng.Intn(len(vms))
		old := 1 + rng.Intn(6)
		out[i] = obs.Event{
			Tick:     rng.Intn(100000),
			Kind:     controllerKinds[rng.Intn(len(controllerKinds))],
			Workload: vms[vm],
			Socket:   vm % 2,
			From:     reportCategories[rng.Intn(len(reportCategories))],
			To:       reportCategories[rng.Intn(len(reportCategories))],
			OldWays:  old,
			NewWays:  old + 1,
			OldVal:   rng.Float64(),
			NewVal:   rng.Float64(),
			Reason:   "synthetic decision from the benchmark's seeded agent",
			Policy:   "reactive",
		}
	}
	return out
}

// report sends the agent's next report and returns the client-observed
// latency.
func (a *benchAgent) report(ctx context.Context, c *cluster.Client) (time.Duration, error) {
	req := &a.reports[a.tick%fleetVariants]
	req.Tick = a.tick
	start := time.Now()
	_, err := c.Report(ctx, req)
	return time.Since(start), err
}

// upload sends the agent's next event batch and checks the
// coordinator's cursor.
func (a *benchAgent) upload(ctx context.Context, c *cluster.Client) (time.Duration, error) {
	batch := a.batches[a.tick%fleetVariants]
	req := &cluster.EventsRequest{
		Version:  cluster.ProtocolVersion,
		AgentID:  a.id,
		Epoch:    agentEpoch,
		FirstSeq: a.nextSeq,
		Events:   batch,
	}
	start := time.Now()
	resp, err := c.Events(ctx, req)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	a.nextSeq += uint64(len(batch))
	if resp.NextSeq != a.nextSeq {
		return d, fmt.Errorf("%s: coordinator cursor %d, generator sent up to %d", a.name, resp.NextSeq, a.nextSeq)
	}
	return d, nil
}

// promValues reads the registry's Prometheus exposition into a map from
// sample name to value, label variants summed. The registry has no
// lookup by name and the instruments are registered inside the packages,
// so reading the exposition is the outside view.
func promValues(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name, _, _ := strings.Cut(fields[0], "{")
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// verifyStore checks the recorder against what the generator sent:
// every record present, nothing lost, nothing duplicated. preloaded is
// the record count put there during set-up.
func (r *fleetRig) verifyStore(out *outcome, preloaded uint64) {
	var sent uint64
	cursors := r.store.Cursors()
	for _, a := range r.agents {
		sent += a.nextSeq
		cur := cursors[a.name]
		if cur.NextSeq != a.nextSeq || cur.Lost != 0 {
			out.problemf("%s: recorder cursor next=%d lost=%d, generator sent %d", a.name, cur.NextSeq, cur.Lost, a.nextSeq)
		}
	}
	// The coordinator's own stream (one AgentEnrolled per enrollment).
	coordEvents := cursors["coord"].NextSeq
	if coordEvents != uint64(len(r.agents)) {
		out.problemf("coordinator recorded %d events of its own, expected %d enrollments", coordEvents, len(r.agents))
	}
	if got, want := r.store.Stats().Records, preloaded+sent+coordEvents; got != want {
		out.problemf("recorder holds %d records, expected %d (%d pre-loaded + %d sent + %d coordinator)",
			got, want, preloaded, sent, coordEvents)
	}
	prom := promValues(r.reg)
	if d := prom["dcat_flightrec_duplicates_total"]; d != 0 {
		out.problemf("recorder dropped %v events as duplicates", d)
	}
	if l := prom["dcat_flightrec_lost_total"]; l != 0 {
		out.problemf("recorder counted %v events lost", l)
	}
}

// clusterReports fetches /cluster and returns the accepted-report count.
func (r *fleetRig) clusterReports() (int, error) {
	resp, err := http.Get(r.srv.URL + "/cluster")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/cluster: HTTP %d", resp.StatusCode)
	}
	var st struct {
		Reports int `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Reports, nil
}

// fleetLayers derives the layer metrics both fleet workloads share.
// elapsed is the timed region's length.
func (r *fleetRig) fleetLayers(out *outcome, elapsed time.Duration) error {
	tr := r.rc.tr
	st := tr.stats()
	for _, ep := range []string{"report", "events"} {
		if h := st[spanKey{"cluster", "handler_" + ep}]; h != nil {
			out.setPctScaled("cluster.handler_"+ep+"_us_p50", &h.durs, 0.5, 1e-3)
			out.setPctScaled("cluster.handler_"+ep+"_us_p99", &h.durs, 0.99, 1e-3)
		}
	}
	out.setPctScaled("cluster.transport_us_p50", tr.parentMinusChild("cluster", "handler_report"), 0.5, 1e-3)

	// Decode cost, standalone, on the exact bytes a client sends.
	a := r.agents[0]
	repBody, err := json.Marshal(&a.reports[0])
	if err != nil {
		return err
	}
	evBody, err := json.Marshal(&cluster.EventsRequest{Version: cluster.ProtocolVersion, AgentID: a.id,
		Epoch: agentEpoch, Events: a.batches[0]})
	if err != nil {
		return err
	}
	var decRep, decEv dist
	for i := 0; i < 400; i++ {
		start := time.Now()
		if _, err := cluster.DecodeReportRequest(repBody); err != nil {
			return err
		}
		mid := time.Now()
		if _, err := cluster.DecodeEventsRequest(evBody); err != nil {
			return err
		}
		decRep.add(float64(mid.Sub(start)) / 1e3)
		decEv.add(float64(time.Since(mid)) / 1e3)
	}
	out.setPct("cluster.decode_report_us_p50", &decRep, 0.5)
	out.setPct("cluster.decode_events_us_p50", &decEv, 0.5)

	prom := promValues(r.reg)
	if n := prom["dcat_coord_lock_wait_seconds_count"]; n > 0 {
		out.set("cluster.lock_wait_us_mean", prom["dcat_coord_lock_wait_seconds_sum"]/n*1e6, int(n))
		hold := prom["dcat_coord_lock_hold_seconds_sum"]
		out.set("cluster.lock_hold_us_mean", hold/n*1e6, int(n))
		out.set("cluster.lock_hold_share", hold/elapsed.Seconds(), int(n))
	}
	var snap dist
	for i := 0; i < 30; i++ {
		start := time.Now()
		_ = r.coord.TenantMetricsSnapshot()
		snap.add(float64(time.Since(start)) / 1e6)
	}
	out.setPct("cluster.tenant_snapshot_ms_p50", &snap, 0.5)
	out.set("cluster.client_retries", float64(r.rpc.Retries.Value()), 0)

	// Recorder append, in isolation: the same batches into a scratch
	// store on the same filesystem.
	scratch, err := flightrec.Open(flightrec.Config{Dir: filepath.Join(r.rc.dir, "append-probe")})
	if err != nil {
		return err
	}
	defer scratch.Close()
	var app dist
	var seq uint64
	for i := 0; i < 300; i++ {
		batch := r.agents[i%len(r.agents)].batches[i%fleetVariants]
		start := time.Now()
		if _, err := scratch.Append("probe", 1, seq, batch, 0); err != nil {
			return err
		}
		app.add(float64(time.Since(start)) / 1e3)
		seq += uint64(len(batch))
	}
	out.setPct("flightrec.append_us_p50", &app, 0.5)
	out.setPct("flightrec.append_us_p99", &app, 0.99)
	out.set("flightrec.append_us_per_event", app.mean()/fleetBatch, app.n())
	if n := prom["dcat_flightrec_append_seconds_count"]; n > 0 {
		out.set("flightrec.append_us_mean", prom["dcat_flightrec_append_seconds_sum"]/n*1e6, int(n))
	}
	stats := r.store.Stats()
	out.set("flightrec.segments", float64(stats.Segments), 0)
	out.set("flightrec.bytes", float64(stats.Bytes), 0)
	out.set("flightrec.records", float64(stats.Records), 0)
	var lost uint64
	for _, c := range r.store.Cursors() {
		lost += c.Lost
	}
	out.set("flightrec.lost", float64(lost), 0)
	out.set("flightrec.duplicates", prom["dcat_flightrec_duplicates_total"], 0)
	return nil
}
