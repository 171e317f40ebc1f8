package flightrec_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/flightrec"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

// decoded reads dcat_flightrec_select_decoded_total off the registry.
func decoded(t *testing.T, reg *telemetry.Registry) uint64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "dcat_flightrec_select_decoded_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("dcat_flightrec_select_decoded_total not exposed")
	return 0
}

// fetch GETs url and reads the whole body, failing on any status but
// 200.
func fetch(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v, body %q", url, res.StatusCode, err, body)
	}
	return res, body
}

// TestSelectDecodesOnlyWhatItReturns pins the recorder's read cost as a
// count, not a clock: on a store shaped like the fleet-mixed pre-load
// (4,096 records over several segments, 16 agents, 64 four-span
// placement traces), each operator query shape and each placement pass
// decodes exactly the records it gets back, where decoding every line of
// each segment the summary cannot rule out costs tens to hundreds of
// times more. Over HTTP, /fleet/events and /fleet/explain serve the
// stored lines and decode nothing; /fleet/trace decodes its spans.
func TestSelectDecodesOnlyWhatItReturns(t *testing.T) {
	const (
		total, nAgents, nVMs, nTraces, batch = 4096, 16, 8, 64, 32
	)
	reg := telemetry.NewRegistry()
	store, err := flightrec.Open(flightrec.Config{Dir: t.TempDir(), SegmentMaxBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.RegisterMetrics(reg)

	// The generator keeps its own tally of what each query should return.
	rng := rand.New(rand.NewSource(1))
	kinds := []obs.Kind{obs.KindWayGrant, obs.KindWayReclaim, obs.KindStateTransition, obs.KindPhaseChange, obs.KindBaselineSet}
	var (
		nextID  = uint64(1)
		byVM    = map[string]int{}
		byAgent = map[string][]uint64{}
		grants  int
		seqs    = map[string]uint64{}
	)
	appendBatch := func(agent string, evs []obs.Event) {
		t.Helper()
		if _, err := store.Append(agent, 1, seqs[agent], evs, 0); err != nil {
			t.Fatal(err)
		}
		seqs[agent] += uint64(len(evs))
		for _, e := range evs {
			byVM[e.Workload]++
			byAgent[agent] = append(byAgent[agent], nextID)
			if e.Kind == obs.KindWayGrant {
				grants++
			}
			nextID++
		}
	}
	vm := func(a, w int) string { return fmt.Sprintf("vm-%02d-%d", a, w) }
	agent := func(a int) string { return fmt.Sprintf("pre-%02d", a) }
	plain := total - nTraces*4
	for done, i := 0, 0; done < plain; i++ {
		a := i % nAgents
		evs := make([]obs.Event, min(batch, plain-done))
		for j := range evs {
			w := rng.Intn(nVMs)
			evs[j] = obs.Event{Tick: i, Kind: kinds[rng.Intn(len(kinds))], Workload: vm(a, w), Socket: w % 2,
				OldWays: 2, NewWays: 3, Reason: "synthetic decision", Policy: "reactive"}
		}
		appendBatch(agent(a), evs)
		done += len(evs)
	}
	for tr := 1; tr <= nTraces; tr++ {
		a := tr % nAgents
		id := uint64(tr) << 8
		ev := func(k obs.Kind, span, parent uint64) obs.Event {
			return obs.Event{Kind: k, Workload: vm(a, tr%nVMs), Reason: "placement trace", TraceID: id, SpanID: span, ParentID: parent}
		}
		appendBatch("pre-coord", []obs.Event{ev(obs.KindPlacementPressure, id, 0), ev(obs.KindPlacementIssued, id+1, id)})
		appendBatch(agent(a), []obs.Event{ev(obs.KindPlacementExecuted, id+2, id+1)})
		appendBatch("pre-coord", []obs.Event{ev(obs.KindPlacementVerified, id+3, id+2)})
	}
	if st := store.Stats(); st.Records != total || st.Segments < 4 {
		t.Fatalf("pre-load: %+v, want %d records over at least 4 segments", st, total)
	}

	srv := httptest.NewServer(httpstatus.ClusterHandlerOpts(cluster.NewCoordinator(cluster.CoordinatorConfig{}),
		httpstatus.Options{Recorder: store}))
	defer srv.Close()
	wayGrant := obs.KindWayGrant
	tail := byAgent[agent(5)]
	cut := len(tail) / 2
	for _, c := range []struct {
		name, path string
		q          flightrec.Query
		want       int
	}{
		{"explain", "/fleet/explain?vm=" + vm(3, 4) + "&n=50", flightrec.Query{Workload: vm(3, 4), LastN: 50}, min(byVM[vm(3, 4)], 50)},
		{"agent tail", fmt.Sprintf("/fleet/events?agent=%s&after=%d", agent(5), tail[cut]),
			flightrec.Query{Agent: agent(5), AfterID: tail[cut]}, len(tail) - cut - 1},
		{"kind", "/fleet/events?kind=WayGrant&n=100", flightrec.Query{Kind: &wayGrant, LastN: 100}, min(grants, 100)},
		{"trace", fmt.Sprintf("/fleet/events?trace=%d", 7<<8), flightrec.Query{TraceID: 7 << 8}, 4},
	} {
		before := decoded(t, reg)
		recs, err := store.Select(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(recs) != c.want {
			t.Fatalf("%s: %d records, generator expects %d", c.name, len(recs), c.want)
		}
		if n := decoded(t, reg) - before; n != uint64(len(recs)) {
			t.Errorf("%s: decoded %d records to return %d", c.name, n, len(recs))
		}

		var want bytes.Buffer
		if err := flightrec.WriteRecordsJSONL(&want, recs); err != nil {
			t.Fatal(err)
		}
		before = decoded(t, reg)
		res, body := fetch(t, srv.URL+c.path)
		if n := decoded(t, reg) - before; n != 0 {
			t.Errorf("GET %s: decoded %d records", c.path, n)
		}
		if got := res.Header.Get("X-Dcat-Record-Count"); got != strconv.Itoa(c.want) || !bytes.Equal(body, want.Bytes()) {
			t.Errorf("GET %s: %s records in %d bytes, want %d records in the %d bytes Select re-encodes to",
				c.path, got, len(body), c.want, want.Len())
		}
	}
	before := decoded(t, reg)
	fetch(t, fmt.Sprintf("%s/fleet/trace?id=%d", srv.URL, 7<<8))
	if n := decoded(t, reg) - before; n != 4 {
		t.Errorf("/fleet/trace of a four-span trace decoded %d records", n)
	}

	// Placement's recorder scan: the first pass reads the whole history,
	// every later one only what arrived since.
	engine := placement.NewEngine(placement.Config{Recorder: store})
	engine.Evaluate(nil)
	before = decoded(t, reg)
	upload := make([]obs.Event, batch)
	for i := range upload {
		upload[i] = obs.Event{Tick: i, Kind: obs.KindWayReclaim, Workload: vm(0, 0), Reason: "upload"}
	}
	appendBatch(agent(0), upload)
	engine.Evaluate(nil)
	if n := decoded(t, reg) - before; n != batch {
		t.Errorf("placement pass after one %d-event upload decoded %d records", batch, n)
	}
}
