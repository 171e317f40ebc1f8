package flightrec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// splitLines splits SelectJSONL's bytes after each '\n'.
func splitLines(raw []byte) [][]byte {
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if last := len(lines) - 1; len(lines[last]) == 0 {
		lines = lines[:last]
	}
	return lines
}

// mustSelectLines runs SelectJSONL and splits its bytes into lines,
// failing unless there are exactly want of them, each '\n'-terminated.
func mustSelectLines(t testing.TB, s *Store, q Query, want int) [][]byte {
	t.Helper()
	n, raw, err := s.SelectJSONL(q)
	if err != nil {
		t.Fatalf("SelectJSONL(%+v): %v", q, err)
	}
	lines := splitLines(raw)
	if n != want || len(lines) != want || (want > 0 && !bytes.HasSuffix(raw, []byte("\n"))) {
		t.Fatalf("SelectJSONL(%+v): n=%d, %d lines, want %d", q, n, len(lines), want)
	}
	return lines
}

// requireSameBytes fails unless SelectJSONL(q) is byte for byte
// WriteRecordsJSONL of Select(q), for every q.
func requireSameBytes(t *testing.T, s *Store, stage string, qs ...Query) {
	t.Helper()
	for _, q := range qs {
		recs := mustSelect(t, s, q)
		var want bytes.Buffer
		if err := WriteRecordsJSONL(&want, recs); err != nil {
			t.Fatal(err)
		}
		n, got, err := s.SelectJSONL(q)
		if err != nil {
			t.Fatalf("%s: SelectJSONL(%+v): %v", stage, q, err)
		}
		if n != len(recs) || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: SelectJSONL(%+v) gave %d records, %d bytes; re-encoding Select gives %d records, %d bytes\ngot  %q\nwant %q",
				stage, q, n, len(got), len(recs), want.Len(), got, want.Bytes())
		}
	}
}

// TestSelectJSONLIsWhatWasAppended: on a store filled by Append, the
// stored lines SelectJSONL serves are byte for byte what decoding them
// and encoding the records again gives — with HTML characters, U+2028,
// quotes, control and non-ASCII characters in every string and floats
// at both ends of the encoder's exponent switch — live and after
// reopen, over several segments and query shapes.
func TestSelectJSONLIsWhatWasAppended(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pieces := []string{"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "/", "\u2028", "\u2029", "é", "日本", "🙂", "\n", "\t", "\x01", "\x7f", "\ufffd"}
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(10); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	floats := []float64{0, math.Copysign(0, -1), 1e21, -1e21, 1e20, 1e-7, 1e-6, -1.5, 0.1, 1.0 / 3, 123456789.123456, 5e-324, math.MaxFloat64}
	agents := []string{"host-a", "b<&>", " c", "日" + str()}
	workloads := make([]string, 5)
	for i := range workloads {
		workloads[i] = fmt.Sprintf("w%d%s", i, str())
	}

	clock := newTestClock()
	cfg := Config{Dir: t.TempDir(), SegmentMaxBytes: 2048, Now: clock.Now}
	s := openStore(t, cfg)
	seqs := make([]uint64, len(agents))
	for b := 0; b < 60; b++ {
		a := rng.Intn(len(agents))
		events := make([]obs.Event, 1+rng.Intn(6))
		for i := range events {
			events[i] = obs.Event{
				Tick:     rng.Intn(1000) - 10,
				Kind:     obs.Kind(rng.Intn(int(obs.KindPolicyCluster) + 1)),
				Workload: workloads[rng.Intn(len(workloads))],
				Socket:   rng.Intn(3),
				From:     str(),
				To:       str(),
				OldWays:  rng.Intn(20),
				NewWays:  rng.Intn(20),
				OldVal:   floats[rng.Intn(len(floats))],
				NewVal:   floats[rng.Intn(len(floats))] * rng.Float64(),
				Reason:   str(),
				Policy:   str(),
				TraceID:  uint64(rng.Intn(3)),
				SpanID:   rng.Uint64(),
			}
		}
		seqs[a] = mustAppend(t, s, agents[a], 1, seqs[a], events, 0)
		clock.Advance(1e9)
	}
	if s.nextNum < 4 {
		t.Fatalf("only %d segments, want at least 4", s.nextNum)
	}
	last := s.Stats().LastID
	grant := obs.KindWayGrant
	qs := []Query{
		{}, {LastN: 1}, {LastN: 37}, {AfterID: last / 3}, {AfterID: last - 2}, {AfterID: last},
		{Agent: agents[1]}, {Agent: agents[2], LastN: 4}, {Workload: workloads[3]}, {Workload: workloads[0], LastN: 9},
		{Kind: &grant}, {Kind: &grant, Agent: agents[0], AfterID: last / 2}, {Workload: "nowhere"},
	}
	requireSameBytes(t, s, "live", qs...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, openStore(t, cfg), "reopened", qs...)
}

// TestSelectJSONLInvalidUTF8: Append stores an invalid UTF-8 byte as the
// escape \ufffd, which decodes to U+FFFD, and re-encoding writes U+FFFD
// raw. So that one record's served bytes differ from a decode–encode
// round trip, while the record they hold is the same. Events that
// arrive over the cluster protocol were decoded from JSON and are
// valid UTF-8 already.
func TestSelectJSONLInvalidUTF8(t *testing.T) {
	s := openStore(t, Config{Dir: t.TempDir()})
	e := ev(1, "w")
	e.Reason = "bad \xff byte"
	mustAppend(t, s, "a", 1, 0, []obs.Event{e}, 0)
	recs := mustSelect(t, s, Query{})
	line := mustSelectLines(t, s, Query{}, 1)[0]
	if !bytes.Contains(line, []byte(`bad \ufffd byte`)) {
		t.Fatalf("stored line %q lacks the \\ufffd escape", line)
	}
	var rec Record
	if err := decodeRecordLine(line, &rec); err != nil || rec != recs[0] {
		t.Fatalf("line %q holds %+v (err %v), Select returned %+v", line, rec, err, recs[0])
	}
}

// TestSelectRejectsAlteredLines: a line changed on disk after the store
// indexed it — one byte of a reason or of an id, both still decoding as
// records — and a segment truncated under the open store fail every
// query that reaches them, naming the segment and the offset, instead
// of returning a different record. Queries that do not reach the
// damaged segment are unaffected.
// TestDecodeRecordLineTrailingData: a line holds one record and
// nothing but JSON whitespace after it. A stray closing bracket, which
// Decoder.More reports as no more input, is trailing data like any
// other byte.
func TestDecodeRecordLineTrailingData(t *testing.T) {
	const rec = `{"id":5,"event":{"kind":"WayGrant"}}`
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{rec + "\n", true},
		{rec + " \t\r\n", true},
		{rec + "}\n", false},
		{rec + "]\n", false},
		{rec + " x\n", false},
		{rec + rec + "\n", false},
	} {
		var r Record
		if err := decodeRecordLine([]byte(tc.line), &r); (err == nil) != tc.ok {
			t.Errorf("decodeRecordLine(%q) err = %v, want ok=%v", tc.line, err, tc.ok)
		}
	}
}

func TestSelectRejectsAlteredLines(t *testing.T) {
	for _, c := range []struct {
		name string
		harm func(t *testing.T, path string)
	}{
		{"reason byte", func(t *testing.T, path string) { rewrite(t, path, `"test grant"`, `"test grunt"`) }},
		{"id digit", func(t *testing.T, path string) { rewrite(t, path, `"id":2,`, `"id":3,`) }},
		{"truncated", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-7); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// SegmentMaxBytes 1 seals every batch in a segment of its own.
			s := openStore(t, Config{Dir: t.TempDir(), SegmentMaxBytes: 1})
			for b := 0; b < 3; b++ {
				mustAppend(t, s, "a", 1, uint64(b*4), evs(4, "w", b*4), 0)
			}
			path := s.segs[0].path
			c.harm(t, path)
			for _, q := range []Query{{}, {Workload: "w"}, {Agent: "a", LastN: 12}} {
				if recs, err := s.Select(q); err == nil || !strings.Contains(err.Error(), path+" at offset") {
					t.Errorf("Select(%+v) = %d records, err %v; want an error naming %s and an offset", q, len(recs), err, path)
				}
				if n, _, err := s.SelectJSONL(q); err == nil || !strings.Contains(err.Error(), path+" at offset") {
					t.Errorf("SelectJSONL(%+v) = %d records, err %v; want an error naming %s and an offset", q, n, err, path)
				}
			}
			requireSameBytes(t, s, "past the damage", Query{AfterID: 4}, Query{LastN: 8})
		})
	}
}

// rewrite replaces the first old in the file with new, of the same
// length, in place.
func rewrite(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(old))
	if at < 0 || len(old) != len(new) {
		t.Fatalf("%s: no %q to replace with %q", filepath.Base(path), old, new)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte(new), int64(at)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentReadsBesideRotationAndPrune: queries read their
// lines outside the store mutex while appends rotate segments and
// prune the oldest under them. Every result holds ascending ids, every
// line passes its CRC, decodes to the record its agent appended at its
// seq, is byte for byte that record's encoding, and passes the query's
// filter.
func TestStoreConcurrentReadsBesideRotationAndPrune(t *testing.T) {
	s := openStore(t, Config{Dir: t.TempDir(), SegmentMaxBytes: 1024, MaxSegments: 3})
	const agents, batches, per = 3, 30, 4
	event := func(agent string, seq uint64) obs.Event {
		return obs.Event{Tick: int(seq), Kind: obs.KindWayGrant, Workload: fmt.Sprintf("w%d", seq%3), Reason: agent + " grant <&>"}
	}
	queries := []Query{{}, {Workload: "w1"}, {LastN: 5}, {Agent: "host-1", LastN: 20}}
	check := func(q Query, recs []Record, lines [][]byte) error {
		if q.LastN > 0 && len(recs) > q.LastN {
			return fmt.Errorf("%+v: %d records", q, len(recs))
		}
		for i, r := range recs {
			if i > 0 && r.ID <= recs[i-1].ID {
				return fmt.Errorf("%+v: id %d after %d", q, r.ID, recs[i-1].ID)
			}
			if r.Event != event(r.Agent, r.Seq) || (q.Workload != "" && r.Event.Workload != q.Workload) || (q.Agent != "" && r.Agent != q.Agent) {
				return fmt.Errorf("%+v: record %d is %+v", q, i, r)
			}
			if lines != nil {
				var want bytes.Buffer
				if err := WriteRecordsJSONL(&want, recs[i:i+1]); err != nil || !bytes.Equal(lines[i], want.Bytes()) {
					return fmt.Errorf("%+v: line %d %q, record encodes to %q", q, i, lines[i], want.Bytes())
				}
			}
		}
		return nil
	}

	var appenders, readers sync.WaitGroup
	for a := 0; a < agents; a++ {
		appenders.Add(1)
		go func(name string) {
			defer appenders.Done()
			for b := uint64(0); b < batches; b++ {
				events := make([]obs.Event, per)
				for i := range events {
					events[i] = event(name, b*per+uint64(i))
				}
				if _, err := s.Append(name, 1, b*per, events, 0); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(fmt.Sprintf("host-%d", a))
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				recs, err := s.Select(q)
				if err == nil {
					err = check(q, recs, nil)
				}
				if err != nil {
					t.Errorf("Select: %v", err)
					return
				}
				recs, lines, err := decodeJSONL(s, q)
				if err == nil {
					err = check(q, recs, lines)
				}
				if err != nil {
					t.Errorf("SelectJSONL: %v", err)
					return
				}
			}
		}(r)
	}
	appenders.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if s.nextNum <= st.Segments || st.Segments > 3 {
		t.Fatalf("%d segments created, %d live: want some pruned and at most 3 live", s.nextNum, st.Segments)
	}
	for _, q := range queries {
		recs := mustSelect(t, s, q)
		if err := check(q, recs, mustSelectLines(t, s, q, len(recs))); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeJSONL runs SelectJSONL and decodes each line it returns.
func decodeJSONL(s *Store, q Query) ([]Record, [][]byte, error) {
	n, raw, err := s.SelectJSONL(q)
	if err != nil {
		return nil, nil, err
	}
	lines := splitLines(raw)
	if n != len(lines) {
		return nil, nil, fmt.Errorf("%+v: n=%d over %d lines", q, n, len(lines))
	}
	recs := make([]Record, n)
	for i, line := range lines {
		if err := decodeRecordLine(line, &recs[i]); err != nil {
			return nil, nil, err
		}
	}
	return recs, lines, nil
}
