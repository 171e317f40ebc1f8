package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/placement"
)

// fleet-mixed: reads beside writes on the production assembly
// (coordinator + recorder + placement engine). Client A is an open-loop
// agent stream — one round (report, 32-event upload, placement poll)
// every mixedPeriod, timed from the moment it was due, so a stall is
// charged to every request it delays. Client B is a closed-loop operator
// working through a seeded deck of query shapes against a store
// pre-loaded during set-up.
const (
	mixedPeriod      = 90 * time.Millisecond
	mixedPreload     = 4096 // records in the store when timing starts
	mixedPreAgents   = 16
	mixedTraces      = 64 // placement causality trees among the pre-load
	mixedTraceSpans  = 4  // pressure → issued → executed → verified
	mixedSegmentSize = 256 << 10
	mixedWarmRounds  = 8
)

// queryShape is one operator query with the answer the generator
// expects.
type queryShape struct {
	kind string // explain, tail, kind, trace, metrics, cluster
	path string
	// want is the expected X-Dcat-Record-Count (explain/tail/kind) or span
	// count (trace); -1 checks the status only.
	want int
	// query is the same selection as a direct Store.Select.
	query flightrec.Query
}

type fleetMixed struct {
	rig      *fleetRig
	deck     []queryShape
	preload  uint64
	elapsed  time.Duration
	period   time.Duration
	queryLat map[string]*dist // ms by shape kind
	bodyLen  int64
	queries  int // answered correctly
	// Client-observed latencies of the timed region, ms: the agent
	// stream's reports from their due time, the recorder-backed queries.
	report, queryAll *dist
}

func setupFleetMixed(rc *runCtx) (instance, error) {
	opt := fleetOptions{placement: true, segmentMaxBytes: mixedSegmentSize, agents: fleetAgents}
	preload, preAgents, traces := mixedPreload, mixedPreAgents, mixedTraces
	if rc.cfg.Small {
		opt.agents, opt.segmentMaxBytes = 4, 32<<10
		preload, preAgents, traces = 1024, 4, 8
	}
	rig, err := newFleetRig(rc, opt)
	if err != nil {
		return nil, err
	}
	f := &fleetMixed{rig: rig, period: mixedPeriod, queryLat: make(map[string]*dist)}
	if err := f.preloadStore(preload, preAgents, traces); err != nil {
		rig.close()
		return nil, err
	}
	if st := rig.store.Stats(); !rc.cfg.Small && st.Segments < 4 {
		rig.close()
		return nil, fmt.Errorf("pre-load spans %d segments, want at least 4", st.Segments)
	}
	// Warm-up: a few agent rounds (the first placement evaluation scans
	// the whole pre-load) and one pass over the query deck.
	ctx := context.Background()
	for i := 0; i < mixedWarmRounds; i++ {
		a := rig.agents[i%len(rig.agents)]
		if _, err := a.report(ctx, rig.clients[0]); err != nil {
			rig.close()
			return nil, err
		}
		if _, err := a.upload(ctx, rig.clients[0]); err != nil {
			rig.close()
			return nil, err
		}
		a.tick++
	}
	hc := rig.httpClient()
	for _, q := range f.deck {
		if _, _, err := f.ask(hc, q, 0); err != nil {
			rig.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleetMixed) close() { f.rig.close() }

// preloadStore appends the fixed history the operator queries run
// against and derives the query deck with its expected answers. The
// generator tracks record ids itself (ids are assigned in append order,
// starting after what enrollment already recorded), so the expected
// counts do not come from the store they check.
func (f *fleetMixed) preloadStore(total, nAgents, nTraces int) error {
	store := f.rig.store
	rng := rand.New(rand.NewSource(f.rig.rc.cfg.Seed ^ 0x5eed))
	nextID := store.Stats().LastID + 1
	type stored struct {
		id uint64
		ev obs.Event
	}
	byAgent := make(map[string][]stored)
	var all []stored
	appendBatch := func(agent string, seq uint64, evs []obs.Event) error {
		if _, err := store.Append(agent, agentEpoch, seq, evs, 0); err != nil {
			return err
		}
		enc, _ := json.Marshal(evs)
		f.rig.payload.Write(enc)
		for _, ev := range evs {
			s := stored{id: nextID, ev: ev}
			nextID++
			byAgent[agent] = append(byAgent[agent], s)
			all = append(all, s)
		}
		return nil
	}

	agents := make([]*benchAgent, nAgents)
	seqs := make([]uint64, nAgents)
	for i := range agents {
		agents[i] = newBenchAgent(rng, fmt.Sprintf("pre-%02d", i), "old")
	}
	plain := total - nTraces*mixedTraceSpans
	for done, i := 0, 0; done < plain; i++ {
		n := fleetBatch
		if plain-done < n {
			n = plain - done
		}
		a := i % nAgents
		if err := appendBatch(agents[a].name, seqs[a], genEvents(rng, agents[a].vms, n)); err != nil {
			return err
		}
		seqs[a] += uint64(n)
		done += n
	}
	// Placement causality trees, as the engine and an agent would have
	// recorded them: pressure root, issue, execution (from the agent),
	// settlement.
	ids := obs.NewIDGen(uint64(f.rig.rc.cfg.Seed) + 99)
	var traceIDs []uint64
	for t := 0; t < nTraces; t++ {
		a := t % nAgents
		vm := agents[a].vms[t%fleetWorkloads]
		trace := ids.Next()
		issue, exec, settle := ids.Next(), ids.Next(), ids.Next()
		ev := func(k obs.Kind, span, parent uint64) obs.Event {
			return obs.Event{Tick: t, Kind: k, Workload: vm, From: "socket 0", To: "socket 1",
				Reason: "pre-loaded placement trace", TraceID: trace, SpanID: span, ParentID: parent}
		}
		if err := appendBatch("pre-coord", uint64(t*3), []obs.Event{
			ev(obs.KindPlacementPressure, trace, 0), ev(obs.KindPlacementIssued, issue, trace)}); err != nil {
			return err
		}
		if err := appendBatch(agents[a].name, seqs[a], []obs.Event{ev(obs.KindPlacementExecuted, exec, issue)}); err != nil {
			return err
		}
		seqs[a]++
		if err := appendBatch("pre-coord", uint64(t*3+2), []obs.Event{ev(obs.KindPlacementVerified, settle, exec)}); err != nil {
			return err
		}
		traceIDs = append(traceIDs, trace)
	}
	f.preload = uint64(len(all))

	// The deck: fixed proportions, so every pass costs the same.
	capN := func(n, max int) int {
		if n > max {
			return max
		}
		return n
	}
	wayGrant := obs.KindWayGrant
	grants := 0
	for _, s := range all {
		if s.ev.Kind == wayGrant {
			grants++
		}
	}
	for i := 0; i < 6; i++ {
		a := agents[rng.Intn(nAgents)]
		vm := a.vms[rng.Intn(fleetWorkloads)]
		n := 0
		for _, s := range all {
			if s.ev.Workload == vm {
				n++
			}
		}
		f.deck = append(f.deck, queryShape{"explain", "/fleet/explain?vm=" + url.QueryEscape(vm) + "&n=50",
			capN(n, 50), flightrec.Query{Workload: vm, LastN: 50}})
	}
	for i := 0; i < 6; i++ {
		a := agents[rng.Intn(nAgents)]
		recs := byAgent[a.name]
		// A cursor near the middle of the agent's history: the seed picks
		// the agent and the exact record, not how much work the tail is.
		cut := len(recs)/2 + rng.Intn(8)
		cursor := recs[cut].id
		f.deck = append(f.deck, queryShape{"tail",
			"/fleet/events?agent=" + url.QueryEscape(a.name) + "&after=" + strconv.FormatUint(cursor, 10),
			len(recs) - cut - 1, flightrec.Query{Agent: a.name, AfterID: cursor}})
	}
	for i := 0; i < 4; i++ {
		// The live stream adds WayGrants too, but the pre-load alone
		// already exceeds n, so the answer stays exactly n.
		f.deck = append(f.deck, queryShape{"kind", "/fleet/events?kind=WayGrant&n=100",
			capN(grants, 100), flightrec.Query{Kind: &wayGrant, LastN: 100}})
	}
	for i := 0; i < 4; i++ {
		id := traceIDs[rng.Intn(len(traceIDs))]
		f.deck = append(f.deck, queryShape{"trace", "/fleet/trace?id=" + strconv.FormatUint(id, 10),
			mixedTraceSpans, flightrec.Query{TraceID: id}})
	}
	for i := 0; i < 2; i++ {
		f.deck = append(f.deck, queryShape{kind: "metrics", path: "/fleet/metrics", want: -1})
		f.deck = append(f.deck, queryShape{kind: "cluster", path: "/cluster", want: -1})
	}
	for _, q := range f.deck {
		fmt.Fprintf(f.rig.payload, "%s %d\n", q.path, q.want)
	}
	return nil
}

// openLoop calls fn for rounds 0..rounds-1 on a fixed schedule: round k
// is due at start + k*period whether or not the previous round has
// finished on time. fn gets the due time, and must time its request
// from it — a stall then shows in every round it delays, not only in
// the one that hit it.
func openLoop(start time.Time, period time.Duration, rounds int, fn func(k int, due time.Time)) {
	for k := 0; k < rounds; k++ {
		due := start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		fn(k, due)
	}
}

// ask runs one operator query and checks its answer.
func (f *fleetMixed) ask(hc *http.Client, q queryShape, span uint32) (time.Duration, int64, error) {
	req, err := http.NewRequestWithContext(withSpan(context.Background(), span), http.MethodGet, f.rig.srv.URL+q.path, nil)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return d, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, 0, fmt.Errorf("%s: HTTP %d", q.path, resp.StatusCode)
	}
	switch q.kind {
	case "explain", "tail", "kind":
		got, err := strconv.Atoi(resp.Header.Get("X-Dcat-Record-Count"))
		if err != nil || got != q.want {
			return d, 0, fmt.Errorf("%s: X-Dcat-Record-Count %q, generator expects %d", q.path, resp.Header.Get("X-Dcat-Record-Count"), q.want)
		}
	case "trace":
		if got := bytes.Count(body, []byte(`"record":`)); got != q.want {
			return d, 0, fmt.Errorf("%s: %d spans in the tree, generator expects %d", q.path, got, q.want)
		}
	}
	return d, int64(len(body)), nil
}

func (f *fleetMixed) run(out *outcome) error {
	cfg := f.rig.rc.cfg
	rounds := int(cfg.Seconds * float64(time.Second) / float64(f.period))
	if rounds < 1 {
		rounds = 1
	}
	tr := f.rig.rc.tr
	kReport, kEvents, kPoll, kQuery := tr.key("loadgen", "report"), tr.key("loadgen", "events"),
		tr.key("loadgen", "placement"), tr.key("loadgen", "query")

	var (
		wg                       sync.WaitGroup
		report, lateness         dist
		agentOps, agentFail      int
		agentProblems, qProblems []string
		queryOps, queryFail      int
		queries                  dist  // recorder-backed query latencies, ms
		queryBody                int64 // response bytes
		done                     = make(chan struct{})
		start                    = time.Now()
	)
	// Client A: the open-loop agent stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		c := f.rig.clients[0]
		ctx := context.Background()
		fail := func(a *benchAgent, op string, err error) {
			agentFail++
			if len(agentProblems) < 5 {
				agentProblems = append(agentProblems, fmt.Sprintf("%s %s: %v", a.name, op, err))
			}
		}
		openLoop(start, f.period, rounds, func(k int, due time.Time) {
			lateness.add(float64(time.Since(due)) / 1e6)
			a := f.rig.agents[k%len(f.rig.agents)]
			id := tr.begin(0, kReport)
			_, err := a.report(withSpan(ctx, id), c)
			tr.end(id)
			agentOps++
			if err != nil {
				fail(a, "report", err)
			} else {
				// From the due time, not the send time: a round that
				// started late still owes its reader the full wait.
				report.add(float64(time.Since(due)) / 1e6)
			}
			id = tr.begin(0, kEvents)
			_, err = a.upload(withSpan(ctx, id), c)
			tr.end(id)
			agentOps++
			if err != nil {
				fail(a, "upload", err)
			}
			id = tr.begin(0, kPoll)
			resp, err := c.Placement(withSpan(ctx, id), &cluster.PlacementRequest{Version: cluster.ProtocolVersion, AgentID: a.id})
			tr.end(id)
			agentOps++
			if err != nil {
				fail(a, "placement poll", err)
			} else if len(resp.Directives) > 0 {
				fail(a, "placement poll", fmt.Errorf("got %d directives from a balanced fleet", len(resp.Directives)))
			}
			a.tick++
		})
	}()
	// Client B: the closed-loop operator, until the agent stream ends.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := f.rig.httpClient()
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0xdec4))
		deck := append([]queryShape(nil), f.deck...)
		for {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			for _, q := range deck {
				select {
				case <-done:
					return
				default:
				}
				id := tr.begin(0, kQuery)
				d, n, err := f.ask(hc, q, id)
				tr.end(id)
				queryOps++
				if err != nil {
					queryFail++
					if len(qProblems) < 5 {
						qProblems = append(qProblems, err.Error())
					}
					continue
				}
				queryBody += n
				ms := float64(d) / 1e6
				lat := f.queryLat[q.kind]
				if lat == nil {
					lat = &dist{}
					f.queryLat[q.kind] = lat
				}
				lat.add(ms)
				if q.kind != "metrics" && q.kind != "cluster" {
					queries.add(ms)
				}
			}
		}
	}()
	wg.Wait()
	f.elapsed = time.Since(start)
	f.bodyLen, f.queries = queryBody, queryOps-queryFail

	out.Attempted = agentOps + queryOps
	out.Failed = agentFail + queryFail
	out.Problems = append(out.Problems, agentProblems...)
	out.Problems = append(out.Problems, qProblems...)
	if f.queries == 0 {
		out.problemf("the operator completed no query")
	}
	// The operator's queries answered per second of the run, every shape of
	// the deck counted; the headline latency is that of the recorder-backed
	// shapes (~900 samples a run). The agent stream's open-loop report_ms
	// rests on a quarter as many samples, each depending on which query it
	// collides with, and is a per-layer line.
	out.setHeadline(float64(f.queries), f.elapsed.Seconds(), &queries)
	f.report, f.queryAll = &report, &queries
	late, _ := lateness.pct(0.9)
	out.set("loadgen.lateness_ms_p90", late, lateness.n())
	// (Not at test scale: under the race detector, beside four other
	// workloads on two cores, the schedule says nothing about the program.)
	if late > float64(f.period)/1e6 && !cfg.Small {
		out.problemf("agent stream ran %.1f ms late at p90, more than one %v period: the open loop could not hold its schedule", late, f.period)
	}

	f.rig.verifyStore(out, f.preload)
	hsh := f.rig.payload
	fmt.Fprintf(hsh, "rounds=%d records=%d\n", rounds, f.rig.store.Stats().Records)
	out.Digest = hex.EncodeToString(hsh.Sum(nil))
	return nil
}

func (f *fleetMixed) layers(out *outcome) error {
	out.setPct("loadgen.report_ms_p50", f.report, 0.5)
	out.setPct("loadgen.report_ms_p90", f.report, 0.9)
	out.setPct("loadgen.query_ms_p50", f.queryAll, 0.5)
	out.setPct("loadgen.query_ms_p90", f.queryAll, 0.9)
	if err := f.rig.fleetLayers(out, f.elapsed); err != nil {
		return err
	}
	// Direct Store.Select with the operator's own Query values.
	stored := float64(f.rig.store.Stats().Records)
	selects := map[string]*dist{}
	var returned, asked float64
	for round := 0; round < 4; round++ {
		for _, q := range f.deck {
			if q.kind == "metrics" || q.kind == "cluster" {
				continue
			}
			start := time.Now()
			recs, err := f.rig.store.Select(q.query)
			if err != nil {
				return err
			}
			d := selects[q.kind]
			if d == nil {
				d = &dist{}
				selects[q.kind] = d
			}
			d.add(float64(time.Since(start)) / 1e6)
			returned += float64(len(recs))
			asked++
		}
	}
	for kind, name := range map[string]string{"explain": "vm", "tail": "tail", "kind": "kind", "trace": "trace"} {
		if d := selects[kind]; d != nil {
			out.setPct("flightrec.select_"+name+"_ms_p50", d, 0.5)
		}
	}
	out.set("flightrec.select_useful_ratio", returned/asked/stored, int(asked))
	if q, s := f.queryLat["explain"], selects["explain"]; q != nil && s != nil {
		qp, _ := q.pct(0.5)
		sp, _ := s.pct(0.5)
		out.set("httpstatus.query_overhead_ms_p50", qp-sp, q.n())
	}
	if f.queries > 0 {
		out.set("httpstatus.response_bytes_per_query", float64(f.bodyLen)/float64(f.queries), f.queries)
	}

	// Placement evaluation, directly, on views rebuilt from the
	// benchmark's own reports.
	views := make([]placement.AgentView, 0, len(f.rig.agents))
	for _, a := range f.rig.agents {
		v := placement.AgentView{Agent: a.name, TotalWays: fleetTotalWays}
		for _, w := range a.reports[0].Workloads {
			v.Workloads = append(v.Workloads, placement.WorkloadView{
				Name: w.Name, Socket: w.Socket, Category: w.Category, Ways: w.Ways, Baseline: w.BaselineWays})
		}
		views = append(views, v)
	}
	// Each evaluation follows an upload, as it does in the live stream:
	// the engine's recorder scan then has a fresh tail of the active
	// segment to read, which is where its time goes.
	var eval dist
	var seq uint64
	for i := 0; i < 120; i++ {
		batch := f.rig.agents[i%len(f.rig.agents)].batches[i%fleetVariants]
		if _, err := f.rig.store.Append("evaluate-probe", agentEpoch, seq, batch, 0); err != nil {
			return err
		}
		seq += uint64(len(batch))
		start := time.Now()
		f.rig.engine.Evaluate(views)
		eval.add(float64(time.Since(start)) / 1e6)
	}
	out.setPct("placement.evaluate_ms_p50", &eval, 0.5)
	out.setPct("placement.evaluate_ms_p90", &eval, 0.9)
	out.set("placement.directives_issued", float64(f.rig.engine.State().Issued), 0)
	return nil
}
