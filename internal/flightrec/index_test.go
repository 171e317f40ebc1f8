package flightrec

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// fullScan and oracleSelect are the test oracle for Select — the
// algorithm the index replaced. fullScan decodes every '\n'-terminated
// line of every live segment (undecodable lines skipped, an
// unterminated tail ignored).
func fullScan(t testing.TB, s *Store) []Record {
	t.Helper()
	s.mu.Lock()
	paths := make([]string, len(s.segs))
	for i, seg := range s.segs {
		paths[i] = seg.path
	}
	s.mu.Unlock()
	var out []Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				break
			}
			line := data[:nl+1]
			data = data[nl+1:]
			var rec Record
			if decodeRecordLine(line, &rec) == nil {
				out = append(out, rec)
			}
		}
	}
	return out
}

// oracleSelect keeps the records of a full scan that pass an
// independently written filter, then the last LastN.
func oracleSelect(all []Record, q Query) []Record {
	var out []Record
	for _, r := range all {
		if (q.Agent == "" || r.Agent == q.Agent) &&
			(q.Workload == "" || r.Event.Workload == q.Workload) &&
			(q.Kind == nil || r.Event.Kind == *q.Kind) &&
			(q.Socket == nil || r.Event.Socket == *q.Socket) &&
			(q.TraceID == 0 || r.Event.TraceID == q.TraceID) &&
			r.ID > q.AfterID &&
			(q.SinceUnix == 0 || r.RecvUnix >= q.SinceUnix) &&
			(q.UntilUnix == 0 || r.RecvUnix <= q.UntilUnix) {
			out = append(out, r)
		}
	}
	if q.LastN > 0 && len(out) > q.LastN {
		out = out[len(out)-q.LastN:]
	}
	return out
}

// requireOracle fails unless Select returns exactly the oracle's
// records for every query, all is the store's full scan.
func requireOracle(t testing.TB, s *Store, all []Record, qs ...Query) {
	t.Helper()
	for _, q := range qs {
		got, err := s.Select(q)
		if err != nil {
			t.Fatalf("Select(%+v): %v", q, err)
		}
		want := oracleSelect(all, q)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Select(%+v) returned %d records, full scan %d", q, len(got), len(want))
		}
	}
}

func TestIndexEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(indexEntry{}); n > 64 {
		t.Fatalf("indexEntry is %d bytes, budget 64", n)
	}
}

// TestStoreOversizedRecord: a record line past bufio.Scanner's 1 MiB
// token cap stays readable — live and after reopen — and does not fail
// queries over its segment.
func TestStoreOversizedRecord(t *testing.T) {
	clock := newTestClock()
	cfg := Config{Dir: t.TempDir(), Now: clock.Now}
	s := openStore(t, cfg)
	big := ev(2, "w")
	big.Reason = strings.Repeat("x", 3<<19) // 1.5 MiB
	mustAppend(t, s, "a", 1, 0, evs(2, "w", 0), 0)
	mustAppend(t, s, "a", 1, 2, []obs.Event{big}, 0)
	check := func(s *Store) {
		t.Helper()
		recs := mustSelect(t, s, Query{Agent: "a"})
		if len(recs) != 3 || recs[2].Event.Reason != big.Reason {
			t.Fatalf("got %d records, want 3 with the oversized one last", len(recs))
		}
		requireOracle(t, s, fullScan(t, s), Query{Agent: "a"}, Query{LastN: 1})
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(openStore(t, cfg))
}

// TestStoreAppendAfterWriteError: a failed write abandons the active
// segment, so bytes it left behind never shift an indexed offset.
func TestStoreAppendAfterWriteError(t *testing.T) {
	clock := newTestClock()
	cfg := Config{Dir: t.TempDir(), Now: clock.Now}
	s := openStore(t, cfg)
	mustAppend(t, s, "a", 1, 0, evs(3, "w", 0), 0)

	// A partial write lands in the active segment through a second fd...
	path := s.segs[len(s.segs)-1].path
	g, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteString(`{"id":4,"agent":"garbage","epoch":1,"seq":3,"recv_`); err != nil {
		t.Fatal(err)
	}
	g.Close()
	// ...and the store's own write fails.
	closed, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	s.active.Close()
	s.active = closed
	if _, err := s.Append("a", 1, 3, evs(2, "w", 3), 0); err == nil {
		t.Fatal("Append on a closed segment file succeeded")
	}

	// The retry lands in a fresh segment.
	mustAppend(t, s, "a", 1, 3, evs(2, "w", 3), 0)
	check := func(s *Store) {
		t.Helper()
		requireOracle(t, s, fullScan(t, s), Query{}, Query{Agent: "a"}, Query{Agent: "garbage"},
			Query{LastN: 2}, Query{AfterID: 2}, Query{Workload: "w", LastN: 4})
		recs := mustSelect(t, s, Query{})
		if len(recs) != 5 {
			t.Fatalf("got %d records, want 5", len(recs))
		}
		for i, r := range recs {
			if r.Agent != "a" || r.Seq != uint64(i) {
				t.Fatalf("record %d: %+v", i, r)
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(openStore(t, cfg))
}

// TestStoreRejectsInvalidKind: a kind without a name would be stored as
// a line no reader decodes; Append refuses the batch instead.
func TestStoreRejectsInvalidKind(t *testing.T) {
	s := openStore(t, Config{Dir: t.TempDir()})
	bad := evs(2, "w", 0)
	bad[1].Kind = obs.Kind(99)
	if _, err := s.Append("a", 1, 0, bad, 0); err == nil {
		t.Fatal("Append accepted an event of kind 99")
	}
	if next := mustAppend(t, s, "a", 1, 0, evs(2, "w", 0), 0); next != 2 {
		t.Fatalf("next seq %d after the refused batch, want 2", next)
	}
	requireOracle(t, s, fullScan(t, s), Query{})
}

// storeGen drives a store with a seeded mixed stream.
type storeGen struct {
	rng    *rand.Rand
	clock  *testClock
	agents []string
	seqs   []uint64
	start  int64 // Unix time of the first batch
}

func (g *storeGen) event(tick int) obs.Event {
	e := obs.Event{
		Tick:   tick,
		Kind:   obs.Kind(g.rng.Intn(int(obs.KindPolicyCluster) + 1)),
		Socket: g.rng.Intn(3),
		Reason: strings.Repeat("r", g.rng.Intn(40)),
	}
	if w := g.rng.Intn(6); w > 0 {
		e.Workload = fmt.Sprintf("w%d", w-1)
	}
	if g.rng.Intn(3) == 0 {
		e.TraceID = uint64(1 + g.rng.Intn(6))
		e.SpanID = uint64(g.rng.Intn(100))
	}
	return e
}

// batches appends n batches of 1–8 events from random agents, the clock
// stepping 0–2 s between them.
func (g *storeGen) batches(t *testing.T, s *Store, n int) {
	t.Helper()
	for b := 0; b < n; b++ {
		a := g.rng.Intn(len(g.agents))
		events := make([]obs.Event, 1+g.rng.Intn(8))
		for i := range events {
			events[i] = g.event(b)
		}
		g.seqs[a] = mustAppend(t, s, g.agents[a], 1, g.seqs[a], events, 0)
		g.clock.Advance(time.Duration(g.rng.Intn(3)) * time.Second)
	}
}

// query draws a Query over every field; AfterID lands inside the active
// segment half the time it is set, and LastN spans several segments.
func (g *storeGen) query(s *Store) Query {
	var q Query
	pick := func() bool { return g.rng.Intn(3) == 0 }
	if pick() {
		q.Agent = "nobody"
		if g.rng.Intn(5) > 0 {
			q.Agent = g.agents[g.rng.Intn(len(g.agents))]
		}
	}
	if pick() {
		q.Workload = fmt.Sprintf("w%d", g.rng.Intn(6)) // w5 never occurs
	}
	if pick() {
		k := obs.Kind(g.rng.Intn(int(obs.KindPolicyCluster) + 1))
		q.Kind = &k
	}
	if pick() {
		sock := g.rng.Intn(3)
		q.Socket = &sock
	}
	if pick() {
		q.TraceID = uint64(1 + g.rng.Intn(7))
	}
	if pick() {
		s.mu.Lock()
		last := s.nextID - 1
		active := uint64(len(s.segs[len(s.segs)-1].index))
		s.mu.Unlock()
		if g.rng.Intn(2) == 0 {
			q.AfterID = last - uint64(g.rng.Int63n(int64(active)+1))
		} else {
			q.AfterID = uint64(g.rng.Int63n(int64(last) + 2))
		}
	}
	span := g.clock.Now().Unix() - g.start + 1
	if pick() {
		q.SinceUnix = g.start + g.rng.Int63n(span)
	}
	if pick() {
		q.UntilUnix = g.start + g.rng.Int63n(span)
	}
	if g.rng.Intn(2) == 0 {
		q.LastN = 1 + g.rng.Intn(120)
	}
	return q
}

func (g *storeGen) check(t *testing.T, s *Store, stage string) {
	t.Helper()
	t.Logf("%s: %d segments", stage, s.Stats().Segments)
	all := fullScan(t, s)
	for i := 0; i < 150; i++ {
		requireOracle(t, s, all, g.query(s))
	}
}

// TestSelectMatchesFullScan: on seeded stores — mixed kinds,
// workloads, sockets and trace ids from 1–6 agents, clock steps,
// small segments, count and byte retention — indexed Select returns
// exactly what a full scan does, live, after reopen, and after a
// corrupt line in a closed segment and a torn tail in the last.
func TestSelectMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clock := newTestClock()
			cfg := Config{Dir: t.TempDir(), SegmentMaxBytes: 1024 + rng.Int63n(2048), Now: clock.Now}
			switch seed % 3 {
			case 1:
				cfg.MaxSegments = 8 + rng.Intn(8)
			case 2:
				cfg.RetainBytes = 10 * cfg.SegmentMaxBytes
			}
			g := &storeGen{rng: rng, clock: clock, start: clock.Now().Unix()}
			for a := 0; a < 1+rng.Intn(6); a++ {
				g.agents = append(g.agents, fmt.Sprintf("host-%d", a))
			}
			g.seqs = make([]uint64, len(g.agents))

			s := openStore(t, cfg)
			g.batches(t, s, 150)
			if s.nextNum < 8 {
				t.Fatalf("only %d segments created, want at least 8", s.nextNum)
			}
			g.check(t, s, "live")

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openStore(t, cfg)
			g.check(t, s, "reopened")
			g.batches(t, s, 20)
			g.check(t, s, "appended after reopen")

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			names, err := listSegments(cfg.Dir)
			if err != nil || len(names) < 2 {
				t.Fatalf("segments %v, err %v", names, err)
			}
			injectLine(t, segmentPath(cfg.Dir, mustNum(names[rng.Intn(len(names)-1)])), rng, "{\"id\":not json\n")
			appendBytes(t, segmentPath(cfg.Dir, mustNum(names[len(names)-1])), `{"id":999999,"agent":"host-0","ep`)
			s = openStore(t, cfg)
			g.check(t, s, "corrupt line and torn tail")
			g.batches(t, s, 10)
			g.check(t, s, "appended after repair")
		})
	}
}

func mustNum(name string) int {
	n, _ := parseSegmentName(name)
	return n
}

// injectLine inserts line at a random line boundary of the file.
func injectLine(t *testing.T, path string, rng *rand.Rand, line string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	at := rng.Intn(len(lines))
	out := append(bytes.Join(lines[:at], nil), line...)
	out = append(out, bytes.Join(lines[at:], nil)...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendBytes(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}
