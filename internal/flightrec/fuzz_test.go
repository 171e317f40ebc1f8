package flightrec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// segmentSep splits one fuzz input into segment files; 0xff never
// occurs in UTF-8, so no real line carries it.
const segmentSep = 0xff

// realSegment renders n records from two agents the way Append writes
// them.
func realSegment(t testing.TB, n int, reason string) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := obs.Event{Tick: i, Kind: obs.Kind(i % 4), Workload: []string{"", "web"}[i%2], Socket: i % 3, Reason: reason, TraceID: uint64(i % 2)}
		if _, err := s.Append([]string{"a", "b"}[i%2], 1, uint64(i/2), []obs.Event{e}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzSegmentScan writes arbitrary bytes as segment files and opens
// them: no panic, every index entry's line reads back through the
// query reader and decodes to the record the entry describes,
// Select(Query{}) equals a full scan, and every raw line SelectJSONL
// serves decodes to the record Select returns at its position — a line
// Append did not write may differ in its bytes, never in its record.
func FuzzSegmentScan(f *testing.F) {
	lines := realSegment(f, 6, "seed")
	nl := bytes.IndexByte(lines, '\n')
	f.Add(lines)
	f.Add(append(append([]byte{}, lines...), lines[:nl/2]...))                                  // torn tail
	f.Add(append(append([]byte{}, lines[:nl]...), lines[nl+1:]...))                             // two lines merged
	f.Add(bytes.ReplaceAll(lines, []byte("\n"), []byte("\r\n")))                                // CRLF endings
	f.Add(append(append(realSegment(f, 2, strings.Repeat("x", 70<<10)), segmentSep), lines...)) // >64 KiB line, two segments
	f.Add([]byte("not json\n{}\n\n\xff{\"id\":1,\"event\":{\"kind\":\"WayGrant\"}}\n"))
	for _, tail := range []string{"}", "]", " x"} { // trailing data after a record
		f.Add([]byte("{\"id\":5,\"event\":{\"kind\":\"WayGrant\"}}" + tail + "\n"))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		files := bytes.Split(data, []byte{segmentSep})
		if len(files) > 8 {
			files = files[:8]
		}
		for i, b := range files {
			if err := os.WriteFile(filepath.Join(dir, segmentName(i)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, seg := range s.segs {
			checkEntries(t, seg)
		}
		requireOracle(t, s, fullScan(t, s), Query{})
		recs := mustSelect(t, s, Query{})
		for i, line := range mustSelectLines(t, s, Query{}, len(recs)) {
			var rec Record
			if err := decodeRecordLine(line, &rec); err != nil || !reflect.DeepEqual(rec, recs[i]) {
				t.Fatalf("raw line %d %q holds %+v (err %v), Select returned %+v", i, line, rec, err, recs[i])
			}
		}
	})
}

// checkEntries fails unless every index entry of seg reads back, through
// the reader queries use, as a record carrying exactly the entry's
// fields.
func checkEntries(t *testing.T, seg *segMeta) {
	t.Helper()
	names := func(tab map[string]uint32) map[uint32]string {
		out := make(map[uint32]string, len(tab))
		for name, id := range tab {
			out[id] = name
		}
		return out
	}
	agents, workloads := names(seg.agents), names(seg.workloads)
	f, err := os.Open(seg.path)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection{segs: []segHits{{path: seg.path, f: f, entries: seg.index}}}
	defer sel.close()
	lines, err := sel.readLines()
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg.index {
		e := &seg.index[i]
		var rec Record
		line := lines[:e.length]
		lines = lines[e.length:]
		if err := decodeRecordLine(line, &rec); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if rec.ID != e.id || rec.Agent != agents[e.agent] || rec.Event.Workload != workloads[e.workload] || rec.Event.Kind != e.kind ||
			rec.Event.Socket != e.socket || rec.Event.TraceID != e.traceID || rec.RecvUnix != e.recvUnix {
			t.Fatalf("entry %d indexes %+v, line holds %+v", i, *e, rec)
		}
	}
}
