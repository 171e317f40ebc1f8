package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// segmentPrefix/segmentSuffix name segment files: seg-000042.jsonl.
// The zero-padded number keeps lexical order equal to numeric order.
const (
	segmentPrefix = "seg-"
	segmentSuffix = ".jsonl"
)

// maxIndexedTraces bounds the per-segment trace-id set: past it trace
// queries stop skipping the segment (and filter its records one by one)
// rather than keeping every trace a busy fleet births.
const maxIndexedTraces = 512

// indexEntry is the per-record index: where the record's line lies in
// its segment file, the line's CRC-32C, and every field Query filters
// on, so a query decides without touching the disk and reads only the
// lines it returns. Agent and workload are ids into the segment's
// intern tables. 64 bytes, no pointers: a segment's index is one flat
// slice.
type indexEntry struct {
	off      int64
	id       uint64
	recvUnix int64
	traceID  uint64
	socket   int
	kind     obs.Kind
	// length and crc cover the whole line, newline included.
	length   uint32
	crc      uint32
	agent    uint32
	workload uint32
}

// maxLineBytes is the longest line an indexEntry can describe.
const maxLineBytes = math.MaxUint32

// castagnoli is the CRC-32C table every index entry's crc is taken
// with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segMeta is the in-memory index for one on-disk segment: a summary
// that rules out whole segments, and one indexEntry per record.
type segMeta struct {
	num   int
	path  string
	bytes int64
	index []indexEntry // file order

	maxID            uint64
	minUnix, maxUnix int64
	// agents and workloads intern the segment's names: indexEntry ids
	// are their values.
	agents              map[string]uint32
	workloads           map[string]uint32
	kinds               uint64 // bitmask by obs.Kind
	traces              map[uint64]struct{}
	trOverflow          bool
	corruptLinesSkipped uint64
}

func newSegMeta(num int, path string) *segMeta {
	return &segMeta{
		num:       num,
		path:      path,
		agents:    make(map[string]uint32),
		workloads: make(map[string]uint32),
		traces:    make(map[uint64]struct{}),
	}
}

// intern returns name's id in tab, assigning the next one on first
// sight.
func intern(tab map[string]uint32, name string) uint32 {
	id, ok := tab[name]
	if !ok {
		id = uint32(len(tab))
		tab[name] = id
	}
	return id
}

// note indexes one record whose line, at most maxLineBytes long, starts
// at off in the segment file.
func (m *segMeta) note(rec *Record, off int64, line []byte) {
	if len(m.index) == 0 || rec.RecvUnix < m.minUnix {
		m.minUnix = rec.RecvUnix
	}
	if rec.RecvUnix > m.maxUnix {
		m.maxUnix = rec.RecvUnix
	}
	if rec.ID > m.maxID {
		m.maxID = rec.ID
	}
	if k := int(rec.Event.Kind); k >= 0 && k < 64 {
		m.kinds |= 1 << uint(k)
	}
	if rec.Event.TraceID != 0 && !m.trOverflow {
		m.traces[rec.Event.TraceID] = struct{}{}
		if len(m.traces) > maxIndexedTraces {
			m.trOverflow = true
			m.traces = nil
		}
	}
	m.index = append(m.index, indexEntry{
		off:      off,
		length:   uint32(len(line)),
		crc:      crc32.Checksum(line, castagnoli),
		id:       rec.ID,
		recvUnix: rec.RecvUnix,
		traceID:  rec.Event.TraceID,
		socket:   rec.Event.Socket,
		kind:     rec.Event.Kind,
		agent:    intern(m.agents, rec.Agent),
		workload: intern(m.workloads, rec.Event.Workload),
	})
}

// resolve checks q against the segment summary and maps its agent and
// workload names onto the segment's intern ids; ok is false when no
// record in the segment can match.
func (m *segMeta) resolve(q *Query) (agent, workload uint32, ok bool) {
	if len(m.index) == 0 || q.AfterID >= m.maxID {
		return 0, 0, false
	}
	if q.SinceUnix != 0 && m.maxUnix < q.SinceUnix {
		return 0, 0, false
	}
	if q.UntilUnix != 0 && m.minUnix > q.UntilUnix {
		return 0, 0, false
	}
	if q.Kind != nil {
		if k := int(*q.Kind); k >= 0 && k < 64 && m.kinds&(1<<uint(k)) == 0 {
			return 0, 0, false
		}
	}
	if q.TraceID != 0 && !m.trOverflow {
		if _, ok := m.traces[q.TraceID]; !ok {
			return 0, 0, false
		}
	}
	if q.Agent != "" {
		if agent, ok = m.agents[q.Agent]; !ok {
			return 0, 0, false
		}
	}
	if q.Workload != "" {
		if workload, ok = m.workloads[q.Workload]; !ok {
			return 0, 0, false
		}
	}
	return agent, workload, true
}

// segmentName renders the file name for a segment number.
func segmentName(num int) string {
	return fmt.Sprintf("%s%06d%s", segmentPrefix, num, segmentSuffix)
}

// parseSegmentName extracts the number from a segment file name.
func parseSegmentName(name string) (int, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	num, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix))
	if err != nil || num < 0 {
		return 0, false
	}
	return num, true
}

// listSegments returns the directory's segment files in ascending
// numeric order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading segment dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegmentName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := parseSegmentName(names[i])
		b, _ := parseSegmentName(names[j])
		return a < b
	})
	return names, nil
}

// scanSegment reads one segment file, indexing every decodable record
// and invoking fn for each. A torn trailing line (crash mid-append) is
// truncated away when repairTail is set — only the last segment of a
// directory gets that treatment; earlier segments were closed cleanly,
// so a bad line there is skipped and counted instead. So is a line
// longer than maxLineBytes, which no index entry can describe.
func scanSegment(meta *segMeta, repairTail bool, fn func(*Record)) error {
	f, err := os.OpenFile(meta.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("flightrec: opening segment: %w", err)
	}
	defer f.Close()

	var goodEnd int64
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if len(line) == 0 && err != io.EOF {
				return fmt.Errorf("flightrec: reading segment %s: %w", meta.path, err)
			}
			// The end, or a torn tail: goodEnd marks the last full line.
			break
		}
		var rec Record
		if int64(len(line)) > maxLineBytes || decodeRecordLine(line, &rec) != nil {
			meta.corruptLinesSkipped++
			goodEnd += int64(len(line))
			continue
		}
		meta.note(&rec, goodEnd, line)
		meta.bytes += int64(len(line))
		if fn != nil {
			fn(&rec)
		}
		goodEnd += int64(len(line))
	}

	if repairTail {
		if fi, err := f.Stat(); err == nil && fi.Size() > goodEnd {
			if err := f.Truncate(goodEnd); err != nil {
				return fmt.Errorf("flightrec: truncating torn tail of %s: %w", meta.path, err)
			}
		}
	}
	return nil
}

// decodeRecordLine parses one JSONL line into a record, rejecting
// trailing garbage so a half-written merge of two lines cannot pass.
// Only JSON whitespace may follow the record: Decoder.More alone would
// pass a stray closing bracket.
func decodeRecordLine(line []byte, rec *Record) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(rec); err != nil {
		return err
	}
	if len(bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n")) != 0 {
		return fmt.Errorf("flightrec: trailing data after record")
	}
	return nil
}

// segmentPath joins the directory and a segment number's file name.
func segmentPath(dir string, num int) string {
	return filepath.Join(dir, segmentName(num))
}
