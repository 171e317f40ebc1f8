// Package flightrec is the fleet flight recorder: a durable, segmented
// store of decision-trace events streamed from every agent in a dCat
// cluster, plus the query surface operators use to ask *why* a
// workload lost a way long after it happened.
//
// The per-host obs.Journal is a bounded ring — good for "what just
// happened on this machine", useless for post-hoc fleet questions. The
// flight recorder closes that gap: agents upload batched,
// sequence-numbered events over the cluster protocol, the coordinator
// appends them to an on-disk segmented log, and /fleet/events //
// /fleet/explain (and the dcat-trace CLI) query it afterwards.
//
// Design points, in the spirit of always-on tracing systems (Dapper's
// "collect everything, ask questions later"):
//
//   - Segments are append-only JSON Lines files (seg-000042.jsonl)
//     rotated by size and age, with a retention cap pruning the oldest
//     segments. JSONL keeps the format greppable and crash-tolerant: a
//     torn final line is truncated away on reopen, never mistaken for
//     data.
//   - Every record carries the uploading agent, its streamer epoch
//     (process incarnation), and a per-epoch sequence number. The
//     store deduplicates by (agent, epoch, seq) — retried batches are
//     idempotent — and counts sequence gaps as lost events, so
//     agent-side buffer drops are visible, never silent.
//   - An in-memory index is rebuilt on open: per segment a summary
//     (agents, event kinds, trace ids, id and time ranges) that rules
//     out whole segments, and per record a 64-byte entry — the line's
//     offset and length plus every field a query filters on, agent and
//     workload interned per segment, and a CRC-32C of the line.
//     Queries filter the entries under the store mutex, then read and
//     check only the lines they return without it; the HTTP query plane
//     serves those lines as stored, undecoded.
package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// Record is one stored flight-recorder entry: an agent's decision
// event wrapped in the envelope the fleet store needs to order,
// deduplicate, and query it.
type Record struct {
	// ID is store-assigned and strictly increasing across segments —
	// the cursor tail/query clients resume from.
	ID uint64 `json:"id"`
	// Agent is the stable agent name (not the per-enrollment id), so
	// one host's history survives re-enrollments.
	Agent string `json:"agent"`
	// Epoch identifies the agent streamer's incarnation; sequence
	// numbers restart at each new epoch.
	Epoch int64 `json:"epoch"`
	// Seq is the per-(agent, epoch) sequence number assigned at
	// emission time on the agent.
	Seq uint64 `json:"seq"`
	// RecvUnix is the coordinator's ingest time in Unix seconds.
	RecvUnix int64 `json:"recv_unix"`
	// Event is the decision-trace event exactly as the agent's local
	// journal holds it.
	Event obs.Event `json:"event"`
}

// Query selects records. Zero-valued fields do not filter.
type Query struct {
	// Agent restricts to one agent's uploads.
	Agent string
	// Workload restricts to events naming one workload/VM.
	Workload string
	// Kind restricts to one event kind (nil = all kinds).
	Kind *obs.Kind
	// Socket restricts to one LLC domain (nil = all sockets).
	Socket *int
	// TraceID restricts to events stamped with one causality trace id
	// (0 = all). Combined with BuildTraceTree this reconstructs a
	// cross-process decision chain.
	TraceID uint64
	// AfterID keeps only records with ID > AfterID — the tail cursor.
	AfterID uint64
	// SinceUnix/UntilUnix bound the ingest time (inclusive; 0 = open).
	SinceUnix int64
	UntilUnix int64
	// LastN keeps only the most recent n matches (0 = all). Results
	// stay in ascending ID order either way.
	LastN int
}

// matches reports whether one indexed record passes every filter
// except LastN, which Select applies while walking the index. agent and
// workload are q's names as the segment's intern ids (segMeta.resolve).
func (q *Query) matches(e *indexEntry, agent, workload uint32) bool {
	if q.Agent != "" && e.agent != agent {
		return false
	}
	if q.Workload != "" && e.workload != workload {
		return false
	}
	if q.Kind != nil && e.kind != *q.Kind {
		return false
	}
	if q.Socket != nil && e.socket != *q.Socket {
		return false
	}
	if q.TraceID != 0 && e.traceID != q.TraceID {
		return false
	}
	if e.id <= q.AfterID {
		return false
	}
	if q.SinceUnix != 0 && e.recvUnix < q.SinceUnix {
		return false
	}
	if q.UntilUnix != 0 && e.recvUnix > q.UntilUnix {
		return false
	}
	return true
}

// WriteRecordsJSONL renders records as JSON Lines — the /fleet/events
// response body and the dcat-trace -json output format. It is the same
// line shape the segments store on disk.
func WriteRecordsJSONL(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Config tunes a Store. The zero value (plus a Dir) gets
// production-shaped defaults.
type Config struct {
	// Dir is the segment directory, created if missing.
	Dir string
	// SegmentMaxBytes rotates the active segment once it reaches this
	// size (default 4 MiB). One upload batch is never split, so a
	// segment may overshoot by at most one batch.
	SegmentMaxBytes int64
	// SegmentMaxAge rotates the active segment once its first record
	// is this old (default 1h), so quiet fleets still produce prunable
	// units.
	SegmentMaxAge time.Duration
	// MaxSegments caps how many segments are retained, active
	// included (default 64). The oldest closed segments are deleted
	// first.
	MaxSegments int
	// RetainBytes caps the total bytes across retained segments
	// (0 = no byte budget). The oldest closed segments are deleted
	// until the store fits; the active segment is never pruned, so the
	// effective floor is one segment.
	RetainBytes int64
	// Now supplies the clock; tests inject a manual one (default
	// time.Now).
	Now func() time.Time
}

func (c *Config) fill() error {
	if c.Dir == "" {
		return fmt.Errorf("flightrec: store needs a directory")
	}
	if c.SegmentMaxBytes <= 0 {
		c.SegmentMaxBytes = 4 << 20
	}
	if c.SegmentMaxAge <= 0 {
		c.SegmentMaxAge = time.Hour
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 64
	}
	if c.MaxSegments < 2 {
		// One closed + one active minimum, or pruning would delete the
		// segment being written.
		c.MaxSegments = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// CursorInfo is the store's view of one agent's upload stream.
type CursorInfo struct {
	// Epoch is the newest streamer incarnation seen.
	Epoch int64 `json:"epoch"`
	// NextSeq is the next sequence number the store expects — also the
	// acknowledgement returned to the agent.
	NextSeq uint64 `json:"next_seq"`
	// Lost counts events skipped over by sequence gaps: the agent's
	// bounded buffer dropped them before upload.
	Lost uint64 `json:"lost,omitempty"`
	// ReportedDropped is the agent's own cumulative drop counter as of
	// its latest upload.
	ReportedDropped uint64 `json:"reported_dropped,omitempty"`
}

// Stats summarizes the store for status surfaces.
type Stats struct {
	Segments int    `json:"segments"`
	Records  uint64 `json:"records"`
	Bytes    int64  `json:"bytes"`
	// LastID is the newest record id (0 when empty).
	LastID uint64 `json:"last_id"`
}
