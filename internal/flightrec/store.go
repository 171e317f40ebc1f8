package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Store is the durable fleet event log: append-only segments on disk,
// an in-memory index over them, and per-agent upload cursors for
// deduplication. All methods are safe for concurrent use — the
// coordinator's ingest handler appends while operators query.
type Store struct {
	cfg Config

	mu      sync.Mutex
	segs    []*segMeta // ascending segment number; last is the active one
	active  *os.File   // nil until the first append after open/rotation
	nextNum int        // number the next created segment gets
	nextID  uint64     // id the next appended record gets
	// activeStart is the ingest time of the active segment's first
	// record, the age-rotation anchor.
	activeStart time.Time
	cursors     map[string]*agentCursor

	metrics *storeMetrics
}

// agentCursor tracks one agent's upload stream for dedup and loss
// accounting.
type agentCursor struct {
	epoch    int64
	next     uint64
	lost     uint64
	reported uint64 // agent's cumulative self-reported buffer drops
}

// storeMetrics holds the ingest counters registered on a telemetry
// registry.
type storeMetrics struct {
	records    *telemetry.Counter
	duplicates *telemetry.Counter
	lost       *telemetry.Counter
	batches    *telemetry.Counter
	rotations  *telemetry.Counter
	pruned     *telemetry.Counter
	segments   *telemetry.Gauge
	bytes      *telemetry.Gauge
	// appendSeconds/selectSeconds time the store's two hot operations
	// (wall clock, independent of the injectable cfg.Now).
	appendSeconds *telemetry.Histogram
	selectSeconds *telemetry.Histogram
	// selectDecoded counts Select's work where the clock cannot: records
	// decoded, which the index holds to records returned. SelectJSONL
	// decodes none.
	selectDecoded *telemetry.Counter
}

// Open creates or reopens a store over cfg.Dir. Reopening scans every
// segment to rebuild the index and the per-agent cursors, truncates a
// torn trailing line left by a crash, and starts a fresh segment for
// new appends — recovered files are never appended to.
func Open(cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flightrec: creating segment dir: %w", err)
	}
	// IDs are 1-based so AfterID (an exclusive cursor) zero-values to
	// "from the beginning".
	s := &Store{cfg: cfg, cursors: make(map[string]*agentCursor), nextID: 1}

	names, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		num, _ := parseSegmentName(name)
		meta := newSegMeta(num, segmentPath(cfg.Dir, num))
		last := i == len(names)-1
		err := scanSegment(meta, last, func(rec *Record) {
			if rec.ID >= s.nextID {
				s.nextID = rec.ID + 1
			}
			s.advanceCursorLocked(rec.Agent, rec.Epoch, rec.Seq)
		})
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, meta)
		s.nextNum = num + 1
	}
	return s, nil
}

// advanceCursorLocked folds one recovered record into the cursor map.
// Replayed from disk in append order, this reproduces the cursors the
// store held before a restart (gap loss already materialized in the
// stored seqs, so lost counts restart at 0 — the metric is per
// coordinator run, the sequence numbers are forever).
func (s *Store) advanceCursorLocked(agent string, epoch int64, seq uint64) {
	cur := s.cursors[agent]
	if cur == nil {
		cur = &agentCursor{epoch: epoch, next: seq}
		s.cursors[agent] = cur
	}
	if epoch > cur.epoch {
		cur.epoch = epoch
		cur.next = seq
	}
	if epoch == cur.epoch && seq >= cur.next {
		cur.next = seq + 1
	}
}

// RegisterMetrics registers the store's ingest metrics on reg:
//
//	dcat_flightrec_records_total     records appended
//	dcat_flightrec_duplicates_total  events dropped as (agent,epoch,seq) duplicates
//	dcat_flightrec_lost_total        events lost to agent-side buffer drops (sequence gaps)
//	dcat_flightrec_batches_total     upload batches accepted
//	dcat_flightrec_rotations_total   segment rotations
//	dcat_flightrec_pruned_segments_total  segments deleted by retention
//	dcat_flightrec_segments          live segment count
//	dcat_flightrec_bytes             bytes across live segments
//	dcat_flightrec_append_seconds    batch append latency, fsync included
//	dcat_flightrec_select_seconds    query latency
//	dcat_flightrec_select_decoded_total  records queries decoded
//
// Select filters the per-record index and decodes only the records it
// returns, so select_decoded_total equals the records Select returned;
// SelectJSONL serves the stored lines and decodes none.
func (s *Store) RegisterMetrics(reg *telemetry.Registry) {
	m := &storeMetrics{
		records: reg.Counter("dcat_flightrec_records_total",
			"Flight-recorder records appended to the segmented store."),
		duplicates: reg.Counter("dcat_flightrec_duplicates_total",
			"Uploaded events dropped as (agent,epoch,seq) duplicates of stored records."),
		lost: reg.Counter("dcat_flightrec_lost_total",
			"Events lost before upload, observed as sequence gaps (agent buffer drops)."),
		batches: reg.Counter("dcat_flightrec_batches_total",
			"Event upload batches accepted into the store."),
		rotations: reg.Counter("dcat_flightrec_rotations_total",
			"Segment rotations (size- or age-triggered)."),
		pruned: reg.Counter("dcat_flightrec_pruned_segments_total",
			"Segments deleted by the retention cap."),
		segments: reg.Gauge("dcat_flightrec_segments",
			"Live flight-recorder segments, active included."),
		bytes: reg.Gauge("dcat_flightrec_bytes",
			"Bytes across live flight-recorder segments."),
		appendSeconds: reg.Histogram("dcat_flightrec_append_seconds",
			"Batch append latency of the segmented store, fsync included.",
			telemetry.DefLatencyBuckets),
		selectSeconds: reg.Histogram("dcat_flightrec_select_seconds",
			"Query (Select) latency of the segmented store.",
			telemetry.DefLatencyBuckets),
		selectDecoded: reg.Counter("dcat_flightrec_select_decoded_total",
			"Records queries (Select) decoded from segment files."),
	}
	s.mu.Lock()
	s.metrics = m
	s.updateGaugesLocked()
	s.mu.Unlock()
}

func (s *Store) updateGaugesLocked() {
	if s.metrics == nil {
		return
	}
	var b int64
	for _, seg := range s.segs {
		b += seg.bytes
	}
	s.metrics.segments.Set(float64(len(s.segs)))
	s.metrics.bytes.Set(float64(b))
}

// Append ingests one upload batch: events with consecutive sequence
// numbers starting at firstSeq, from the given agent streamer epoch.
// Events whose (epoch, seq) the store already holds are dropped as
// duplicates (retried batches are idempotent); a firstSeq beyond the
// cursor records the gap as lost events. reportedDropped is the
// agent's cumulative drop counter, remembered for status surfaces.
//
// Append returns the next sequence number the store expects — the
// acknowledgement the agent trims its buffer with.
func (s *Store) Append(agent string, epoch int64, firstSeq uint64, events []obs.Event, reportedDropped uint64) (uint64, error) {
	if agent == "" {
		return 0, fmt.Errorf("flightrec: append with empty agent name")
	}
	now := s.cfg.Now()
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics != nil {
		defer func() { s.metrics.appendSeconds.Observe(time.Since(start).Seconds()) }()
	}

	cur := s.cursors[agent]
	if cur == nil {
		// First contact: adopt the agent's numbering wherever it starts.
		cur = &agentCursor{epoch: epoch, next: firstSeq}
		s.cursors[agent] = cur
	}
	cur.reported = reportedDropped
	switch {
	case epoch > cur.epoch:
		// The agent restarted; its sequence space restarted with it.
		cur.epoch = epoch
		cur.next = firstSeq
	case epoch < cur.epoch:
		// A batch from a dead incarnation (delayed retry). Everything in
		// it is at best a duplicate of history we can no longer order;
		// drop it whole.
		if s.metrics != nil {
			s.metrics.duplicates.Add(uint64(len(events)))
		}
		return cur.next, nil
	}

	skip := 0
	if firstSeq < cur.next {
		d := cur.next - firstSeq
		if d > uint64(len(events)) {
			d = uint64(len(events))
		}
		skip = int(d)
	} else if gap := firstSeq - cur.next; gap > 0 {
		cur.lost += gap
		if s.metrics != nil {
			s.metrics.lost.Add(gap)
		}
	}
	fresh := events[skip:]
	if s.metrics != nil {
		if skip > 0 {
			s.metrics.duplicates.Add(uint64(skip))
		}
		s.metrics.batches.Inc()
	}
	if len(fresh) == 0 {
		if end := firstSeq + uint64(len(events)); end > cur.next {
			cur.next = end
		}
		return cur.next, nil
	}

	// Encode the whole accepted batch before touching the file so a
	// write error leaves ids and cursors unadvanced. (A partially
	// flushed batch after a write error is recovered — and deduped —
	// by the torn-tail scan on reopen.) starts[i] is record i's line
	// offset in the batch.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	recs := make([]Record, len(fresh))
	starts := make([]int64, len(fresh)+1)
	for i, ev := range fresh {
		// A kind without a name encodes to a line no reader decodes.
		if !ev.Kind.Valid() {
			return cur.next, fmt.Errorf("flightrec: event %d has invalid kind %d", i, int(ev.Kind))
		}
		starts[i] = int64(buf.Len())
		recs[i] = Record{
			ID:       s.nextID + uint64(i),
			Agent:    agent,
			Epoch:    epoch,
			Seq:      firstSeq + uint64(skip) + uint64(i),
			RecvUnix: now.Unix(),
			Event:    ev,
		}
		if err := enc.Encode(&recs[i]); err != nil {
			return cur.next, fmt.Errorf("flightrec: encoding record: %w", err)
		}
		if n := int64(buf.Len()) - starts[i]; n > maxLineBytes {
			return cur.next, fmt.Errorf("flightrec: event %d encodes to a %d-byte line, over the %d-byte limit", i, n, int64(maxLineBytes))
		}
	}
	starts[len(recs)] = int64(buf.Len())

	if err := s.rotateIfNeededLocked(now, int64(buf.Len())); err != nil {
		return cur.next, err
	}
	if err := s.writeActiveLocked(buf.Bytes()); err != nil {
		return cur.next, err
	}

	meta := s.segs[len(s.segs)-1]
	batch := buf.Bytes()
	for i := range recs {
		meta.note(&recs[i], meta.bytes+starts[i], batch[starts[i]:starts[i+1]])
	}
	meta.bytes += int64(buf.Len())
	s.nextID += uint64(len(recs))
	cur.next = firstSeq + uint64(len(events))
	if s.metrics != nil {
		s.metrics.records.Add(uint64(len(recs)))
	}
	s.pruneLocked()
	s.updateGaugesLocked()
	return cur.next, nil
}

// writeActiveLocked writes and syncs one encoded batch to the active
// segment. On failure the segment is abandoned — the next append
// rotates to a fresh one — so bytes a partial write left behind never
// shift an indexed offset (reopen skips or truncates them).
func (s *Store) writeActiveLocked(batch []byte) error {
	_, err := s.active.Write(batch)
	if err != nil {
		err = fmt.Errorf("flightrec: appending batch: %w", err)
	} else if err = s.active.Sync(); err != nil {
		err = fmt.Errorf("flightrec: syncing segment: %w", err)
	}
	if err != nil {
		_ = s.active.Close()
		s.active = nil
	}
	return err
}

// rotateIfNeededLocked makes sure an active segment is open and has
// room (by the size and age policies) for the incoming batch.
func (s *Store) rotateIfNeededLocked(now time.Time, incoming int64) error {
	if s.active != nil {
		meta := s.segs[len(s.segs)-1]
		tooBig := meta.bytes > 0 && meta.bytes+incoming > s.cfg.SegmentMaxBytes
		tooOld := len(meta.index) > 0 && now.Sub(s.activeStart) >= s.cfg.SegmentMaxAge
		if !tooBig && !tooOld {
			return nil
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("flightrec: closing segment: %w", err)
		}
		s.active = nil
		if s.metrics != nil {
			s.metrics.rotations.Inc()
		}
	}
	path := segmentPath(s.cfg.Dir, s.nextNum)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("flightrec: creating segment: %w", err)
	}
	s.segs = append(s.segs, newSegMeta(s.nextNum, path))
	s.nextNum++
	s.active = f
	s.activeStart = now
	return nil
}

// pruneLocked enforces the retention caps — segment count and, when a
// byte budget is configured, total bytes — by deleting the oldest
// closed segments. The active segment is never pruned.
func (s *Store) pruneLocked() {
	for len(s.segs) > s.cfg.MaxSegments && len(s.segs) > 1 {
		s.dropOldestLocked()
	}
	if s.cfg.RetainBytes <= 0 {
		return
	}
	var total int64
	for _, seg := range s.segs {
		total += seg.bytes
	}
	for total > s.cfg.RetainBytes && len(s.segs) > 1 {
		total -= s.segs[0].bytes
		s.dropOldestLocked()
	}
}

func (s *Store) dropOldestLocked() {
	oldest := s.segs[0]
	_ = os.Remove(oldest.path)
	s.segs = s.segs[1:]
	if s.metrics != nil {
		s.metrics.pruned.Inc()
	}
}

// segHits is one segment's share of a query's hits: index entries
// copied out of the index in file order, and the segment file opened
// for reading while s.mu was held. Reading them needs no lock, and a
// segment pruned meanwhile stays readable through f.
type segHits struct {
	path    string
	f       *os.File
	entries []indexEntry
}

// selection is one query's hits in ascending id order, n entries in
// all, and the store's metrics as of the walk.
type selection struct {
	segs    []segHits
	n       int
	metrics *storeMetrics
}

// collect walks the index for q under s.mu — newest segment to oldest,
// stopping once q.LastN matches are found — and returns its hits with
// their segment files open; the caller closes them.
func (s *Store) collect(q *Query) (selection, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sel := selection{metrics: s.metrics}
	var found []indexEntry // newest first
	for i := len(s.segs) - 1; i >= 0; i-- {
		seg := s.segs[i]
		agent, workload, ok := seg.resolve(q)
		if !ok {
			continue
		}
		from := len(found)
		for j := len(seg.index) - 1; j >= 0; j-- {
			if e := &seg.index[j]; q.matches(e, agent, workload) {
				found = append(found, *e)
				if len(found) == q.LastN {
					break
				}
			}
		}
		if len(found) > from {
			f, err := os.Open(seg.path)
			if err != nil {
				sel.close()
				return selection{metrics: sel.metrics}, fmt.Errorf("flightrec: opening segment: %w", err)
			}
			es := found[from:len(found):len(found)]
			slices.Reverse(es)
			sel.segs = append(sel.segs, segHits{path: seg.path, f: f, entries: es})
		}
		if q.LastN > 0 && len(found) == q.LastN {
			break
		}
	}
	slices.Reverse(sel.segs)
	sel.n = len(found)
	return sel, nil
}

// close closes the selection's segment files; its entries stay valid.
func (sel *selection) close() {
	for _, h := range sel.segs {
		h.f.Close()
	}
}

// readLines reads every hit's line into one buffer, in order, with one
// ReadAt per run of lines adjacent on disk, and checks each line
// against its entry's CRC-32C. A line that is gone or differs from the
// one its entry was made from is an error naming the segment and the
// offset — never a different record.
func (sel *selection) readLines() ([]byte, error) {
	total := 0
	for _, h := range sel.segs {
		for _, e := range h.entries {
			total += int(e.length)
		}
	}
	buf := make([]byte, total)
	pos := 0
	for _, h := range sel.segs {
		for es := h.entries; len(es) > 0; {
			k, end := 1, es[0].off+int64(es[0].length)
			for k < len(es) && es[k].off == end {
				end += int64(es[k].length)
				k++
			}
			if _, err := h.f.ReadAt(buf[pos:pos+int(end-es[0].off)], es[0].off); err != nil {
				return nil, fmt.Errorf("flightrec: reading %s at offset %d: %w", h.path, es[0].off, err)
			}
			for _, e := range es[:k] {
				if crc32.Checksum(buf[pos:pos+int(e.length)], castagnoli) != e.crc {
					return nil, fmt.Errorf("flightrec: %s at offset %d does not hold the line indexed for record %d (CRC-32C mismatch)", h.path, e.off, e.id)
				}
				pos += int(e.length)
			}
			es = es[k:]
		}
	}
	return buf, nil
}

// read runs q: the index walk under s.mu, then the reads and checks
// without it.
func (s *Store) read(q *Query) (selection, []byte, error) {
	sel, err := s.collect(q)
	if err != nil || sel.n == 0 {
		return sel, nil, err
	}
	defer sel.close()
	lines, err := sel.readLines()
	return sel, lines, err
}

// observeSelect records one query's latency when metrics are
// registered.
func (m *storeMetrics) observeSelect(start time.Time) {
	if m != nil {
		m.selectSeconds.Observe(time.Since(start).Seconds())
	}
}

// Select returns the records matching q in ascending ID order. It
// filters the index — newest segment to oldest, stopping once LastN
// matches are found — and reads, checks and decodes only the matching
// lines.
func (s *Store) Select(q Query) ([]Record, error) {
	start := time.Now()
	sel, lines, err := s.read(&q)
	defer sel.metrics.observeSelect(start)
	if err != nil || sel.n == 0 {
		return nil, err
	}
	out := make([]Record, sel.n)
	i := 0
	for _, h := range sel.segs {
		for _, e := range h.entries {
			rec := &out[i]
			i++
			line := lines[:e.length]
			lines = lines[e.length:]
			if err := decodeRecordLine(line, rec); err != nil {
				return nil, fmt.Errorf("flightrec: decoding %s at offset %d: %w", h.path, e.off, err)
			}
			if rec.ID != e.id {
				return nil, fmt.Errorf("flightrec: %s at offset %d holds record %d, index says %d", h.path, e.off, rec.ID, e.id)
			}
		}
	}
	if sel.metrics != nil {
		sel.metrics.selectDecoded.Add(uint64(len(out)))
	}
	return out, nil
}

// SelectJSONL returns the lines of the records matching q, in Select's
// order, exactly as stored — n '\n'-terminated JSON lines, each checked
// against its index entry. For a record Append wrote, the bytes equal
// WriteRecordsJSONL of the record Select returns; nothing is decoded.
func (s *Store) SelectJSONL(q Query) (n int, lines []byte, err error) {
	start := time.Now()
	sel, lines, err := s.read(&q)
	defer sel.metrics.observeSelect(start)
	if err != nil {
		return 0, nil, err
	}
	return sel.n, lines, nil
}

// Cursors snapshots every agent's upload cursor.
func (s *Store) Cursors() map[string]CursorInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]CursorInfo, len(s.cursors))
	for name, cur := range s.cursors {
		out[name] = CursorInfo{
			Epoch:           cur.epoch,
			NextSeq:         cur.next,
			Lost:            cur.lost,
			ReportedDropped: cur.reported,
		}
	}
	return out
}

// Stats summarizes the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Segments: len(s.segs)}
	for _, seg := range s.segs {
		st.Records += uint64(len(seg.index))
		st.Bytes += seg.bytes
	}
	if s.nextID > 1 {
		st.LastID = s.nextID - 1
	}
	return st
}

// Close flushes and closes the active segment. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	if err != nil {
		return fmt.Errorf("flightrec: closing segment: %w", err)
	}
	return nil
}
