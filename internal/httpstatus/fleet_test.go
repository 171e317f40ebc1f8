package httpstatus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/flightrec"
	"repro/internal/obs"
)

// fleetRig is a flight-recorder store pre-loaded with a small mixed
// history from two agents, mounted behind the coordinator handler
// tree.
func newFleetRig(t *testing.T) (*flightrec.Store, string) {
	t.Helper()
	store, err := flightrec.Open(flightrec.Config{
		Dir: t.TempDir(),
		Now: func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for i := 0; i < 4; i++ {
		ev := obs.Event{Tick: i, Kind: obs.KindWayGrant, Workload: "web", Socket: i % 2, Reason: "grow"}
		if _, err := store.Append("host-a", 1, uint64(i), []obs.Event{ev}, 0); err != nil {
			t.Fatal(err)
		}
	}
	ev := obs.Event{Tick: 9, Kind: obs.KindWayReclaim, Workload: "db", Reason: "phase"}
	if _, err := store.Append("host-b", 1, 0, []obs.Event{ev}, 0); err != nil {
		t.Fatal(err)
	}

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	coord.SetRecorder(store)
	srv := httptest.NewServer(ClusterHandlerOpts(coord, Options{Recorder: coord.Recorder()}))
	t.Cleanup(srv.Close)
	return store, srv.URL
}

// fetchRecords GETs a /fleet path and decodes the NDJSON records.
func fetchRecords(t *testing.T, base, path string) []flightrec.Record {
	t.Helper()
	res := get(t, base, path)
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("GET %s: content type %q", path, ct)
	}
	var recs []flightrec.Record
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		var rec flightrec.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("GET %s: bad record line %q: %v", path, sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestFleetEventsFilters(t *testing.T) {
	_, base := newFleetRig(t)

	all := fetchRecords(t, base, "/fleet/events")
	if len(all) != 5 {
		t.Fatalf("unfiltered: %d records, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatalf("records not in ascending ID order: %d then %d", all[i-1].ID, all[i].ID)
		}
	}

	cases := []struct {
		path string
		want int
	}{
		{"/fleet/events?agent=host-a", 4},
		{"/fleet/events?agent=host-b", 1},
		{"/fleet/events?vm=web", 4},
		{"/fleet/events?vm=db", 1},
		{"/fleet/events?kind=WayReclaim", 1},
		{"/fleet/events?socket=1", 2},
		{"/fleet/events?agent=host-a&socket=0", 2},
		{"/fleet/events?n=2", 2},
		{fmt.Sprintf("/fleet/events?after=%d", all[2].ID), 2},
		{"/fleet/events?vm=nosuch", 0},
	}
	for _, tc := range cases {
		if got := len(fetchRecords(t, base, tc.path)); got != tc.want {
			t.Errorf("%s: %d records, want %d", tc.path, got, tc.want)
		}
	}

	// ?n= keeps the MOST RECENT matches.
	lastTwo := fetchRecords(t, base, "/fleet/events?n=2")
	if lastTwo[1].Agent != "host-b" {
		t.Errorf("n=2 should end with the newest record, got %+v", lastTwo)
	}

	// Bad parameters are 400s, not 500s or empty 200s.
	for _, path := range []string{
		"/fleet/events?kind=NotAKind",
		"/fleet/events?socket=x",
		"/fleet/events?after=x",
		"/fleet/events?since=x",
		"/fleet/events?n=-1",
	} {
		if code := getStatus(t, base, path); code != 400 {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
}

func TestFleetExplain(t *testing.T) {
	_, base := newFleetRig(t)

	recs := fetchRecords(t, base, "/fleet/explain?vm=web")
	if len(recs) != 4 {
		t.Fatalf("explain returned %d records, want 4", len(recs))
	}
	for _, rec := range recs {
		if rec.Event.Workload != "web" {
			t.Errorf("explain leaked a foreign workload: %+v", rec)
		}
	}
	if got := len(fetchRecords(t, base, "/fleet/explain?vm=web&n=2")); got != 2 {
		t.Errorf("explain n=2 returned %d records", got)
	}
	if got := len(fetchRecords(t, base, "/fleet/explain?vm=web&agent=host-b")); got != 0 {
		t.Errorf("explain with wrong agent returned %d records, want 0", got)
	}
	if code := getStatus(t, base, "/fleet/explain"); code != 400 {
		t.Errorf("missing vm: status %d, want 400", code)
	}
}

func TestFleetEndpointsAbsentWithoutRecorder(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	srv := httptest.NewServer(ClusterHandlerOpts(coord, Options{}))
	defer srv.Close()
	if code := getStatus(t, srv.URL, "/fleet/events"); code != 404 {
		t.Errorf("recorderless /fleet/events: status %d, want 404", code)
	}
}

// failingWriter always errors — it latches a FileSink immediately.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestDebugJournalSurfacesTraceSinkFailure(t *testing.T) {
	j := obs.NewJournal(8)
	fs := obs.NewWriterSink(failingWriter{})
	sink := obs.Multi(j, fs)
	for i := 0; i < 3; i++ {
		sink.Emit(obs.Event{Tick: i, Kind: obs.KindWayGrant, Workload: "web", Reason: "x"})
	}
	srv := httptest.NewServer(HandlerOpts(testSource(), Options{Journal: j, Trace: fs}))
	defer srv.Close()

	res := get(t, srv.URL, "/debug/journal")
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Dcat-Trace-Error"); got == "" {
		t.Error("latched trace-file error invisible: no X-Dcat-Trace-Error header")
	}
	if got := res.Header.Get("X-Dcat-Trace-Dropped"); got != "3" {
		t.Errorf("X-Dcat-Trace-Dropped = %q, want 3", got)
	}
}

func TestDebugJournalHealthyTraceSink(t *testing.T) {
	j := obs.NewJournal(8)
	var buf bytes.Buffer
	fs := obs.NewWriterSink(&buf)
	obs.Multi(j, fs).Emit(obs.Event{Tick: 1, Kind: obs.KindWayGrant, Workload: "web", Reason: "x"})
	srv := httptest.NewServer(HandlerOpts(testSource(), Options{Journal: j, Trace: fs}))
	defer srv.Close()

	res := get(t, srv.URL, "/debug/journal")
	defer res.Body.Close()
	if got := res.Header.Get("X-Dcat-Trace-Error"); got != "" {
		t.Errorf("healthy sink reported error %q", got)
	}
	if got := res.Header.Get("X-Dcat-Trace-Dropped"); got != "0" {
		t.Errorf("X-Dcat-Trace-Dropped = %q, want 0", got)
	}
}

func TestFleetTraceEndpoint(t *testing.T) {
	store, err := flightrec.Open(flightrec.Config{
		Dir: t.TempDir(),
		Now: func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	events := []obs.Event{
		{Kind: obs.KindPlacementPressure, Workload: "vm0", TraceID: 7, SpanID: 7},
		{Kind: obs.KindPlacementIssued, Workload: "vm0", TraceID: 7, SpanID: 20, ParentID: 7},
		{Kind: obs.KindPlacementExecuted, Workload: "vm0", TraceID: 7, SpanID: 30, ParentID: 20},
		{Kind: obs.KindPlacementVerified, Workload: "vm0", TraceID: 7, SpanID: 40, ParentID: 30},
		{Kind: obs.KindWayGrant, Workload: "vm1"}, // untraced noise
	}
	if _, err := store.Append("host-a", 1, 0, events, 0); err != nil {
		t.Fatal(err)
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	srv := httptest.NewServer(ClusterHandlerOpts(coord, Options{Recorder: store}))
	t.Cleanup(srv.Close)

	res := get(t, srv.URL, "/fleet/trace?id=7")
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	var tree flightrec.TraceTree
	if err := json.NewDecoder(res.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 1 || len(tree.Orphans) != 0 || tree.Spans() != 4 {
		t.Fatalf("tree roots=%d orphans=%d spans=%d, want 1/0/4",
			len(tree.Roots), len(tree.Orphans), tree.Spans())
	}

	// The same id spelled in hex resolves identically.
	res2 := get(t, srv.URL, "/fleet/trace?id=0000000000000007")
	res2.Body.Close()
	if res2.StatusCode != 200 {
		t.Fatalf("hex id: status %d", res2.StatusCode)
	}

	// ?trace= filters /fleet/events to one trace.
	if got := len(fetchRecords(t, srv.URL, "/fleet/events?trace=7")); got != 4 {
		t.Errorf("/fleet/events?trace=7 returned %d records, want 4", got)
	}

	for _, path := range []string{"/fleet/trace", "/fleet/trace?id=zz", "/fleet/trace?id=0"} {
		if code := getStatus(t, srv.URL, path); code != 400 {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
}

func TestFleetMetricsEndpoint(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Now: func() time.Time { return now },
	})
	srv := httptest.NewServer(ClusterHandlerOpts(coord, Options{Tenants: coord}))
	t.Cleanup(srv.Close)

	res := get(t, srv.URL, "/fleet/metrics")
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	var m cluster.TenantMetrics
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RingSize <= 0 || m.MaxTenants <= 0 {
		t.Errorf("memory bound undocumented: ring=%d maxTenants=%d", m.RingSize, m.MaxTenants)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want JSON", ct)
	}
}

// TestFleetQueriesRejectAlteredRecord: a stored line changed on disk
// after the recorder indexed it — one reason byte, so it still decodes —
// makes every query that reaches it a 500, never a 200 serving the
// altered record; a query past it is served as before.
func TestFleetQueriesRejectAlteredRecord(t *testing.T) {
	dir := t.TempDir()
	// SegmentMaxBytes 1 seals each append in a segment of its own.
	store, err := flightrec.Open(flightrec.Config{Dir: dir, SegmentMaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for i := 0; i < 3; i++ {
		ev := obs.Event{Tick: i, Kind: obs.KindWayGrant, Workload: "web", Reason: "grow"}
		if _, err := store.Append("host-a", 1, uint64(i), []obs.Event{ev}, 0); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(ClusterHandlerOpts(cluster.NewCoordinator(cluster.CoordinatorConfig{}), Options{Recorder: store}))
	t.Cleanup(srv.Close)

	path := filepath.Join(dir, "seg-000000.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"grow"`))
	if at < 0 {
		t.Fatalf("no reason in %q", data)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte(`"grew"`), int64(at))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{"/fleet/events", "/fleet/events?agent=host-a", "/fleet/explain?vm=web"} {
		if code := getStatus(t, srv.URL, p); code != 500 {
			t.Errorf("GET %s: status %d, want 500", p, code)
		}
	}
	if got := len(fetchRecords(t, srv.URL, "/fleet/events?after=1")); got != 2 {
		t.Errorf("/fleet/events?after=1: %d records, want 2", got)
	}
}
