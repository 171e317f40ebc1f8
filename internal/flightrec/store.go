package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
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
	// read and decoded, which the index holds to records returned.
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
//	dcat_flightrec_select_decoded_total  records queries read and decoded
//
// Select filters the per-record index and decodes only the records it
// returns, so select_decoded_total equals the records queries returned.
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
			"Records queries (Select) read and decoded from segment files."),
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
	}
	starts[len(recs)] = int64(buf.Len())

	if err := s.rotateIfNeededLocked(now, int64(buf.Len())); err != nil {
		return cur.next, err
	}
	if err := s.writeActiveLocked(buf.Bytes()); err != nil {
		return cur.next, err
	}

	meta := s.segs[len(s.segs)-1]
	for i := range recs {
		meta.note(&recs[i], meta.bytes+starts[i], starts[i+1]-starts[i])
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

// Select returns the records matching q in ascending ID order. It
// filters the index — newest segment to oldest, stopping once LastN
// matches are found — and reads and decodes only the matching lines.
func (s *Store) Select(q Query) ([]Record, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics != nil {
		defer func() { s.metrics.selectSeconds.Observe(time.Since(start).Seconds()) }()
	}
	type hit struct {
		seg *segMeta
		e   *indexEntry
	}
	var hits []hit // newest first
collect:
	for i := len(s.segs) - 1; i >= 0; i-- {
		seg := s.segs[i]
		agent, workload, ok := seg.resolve(&q)
		if !ok {
			continue
		}
		for j := len(seg.index) - 1; j >= 0; j-- {
			if e := &seg.index[j]; q.matches(e, agent, workload) {
				hits = append(hits, hit{seg, e})
				if len(hits) == q.LastN {
					break collect
				}
			}
		}
	}
	if len(hits) == 0 {
		return nil, nil
	}

	out := make([]Record, len(hits))
	var (
		f   *os.File
		seg *segMeta
		err error
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for i := range out {
		h := hits[len(hits)-1-i]
		if h.seg != seg {
			if f != nil {
				f.Close()
			}
			if f, err = os.Open(h.seg.path); err != nil {
				return nil, fmt.Errorf("flightrec: opening segment: %w", err)
			}
			seg = h.seg
		}
		if err := seg.readRecord(f, h.e, &out[i]); err != nil {
			return nil, err
		}
	}
	if s.metrics != nil {
		s.metrics.selectDecoded.Add(uint64(len(out)))
	}
	return out, nil
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
