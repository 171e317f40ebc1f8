package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the causality side of the observability layer: trace and
// span identifiers that tie one decision's events together across
// processes (controller → streamer → coordinator → placement engine →
// recorder), a generator for them, and a sink wrapper that births a
// trace at the point where a rule fires.
//
// A trace is a tree of spans. The root span is the decision itself
// (TraceID == SpanID, ParentID == 0); every downstream consequence is a
// child span carrying the same TraceID and the causing span as
// ParentID. Identifiers travel between processes inside directive JSON
// and the X-Dcat-Trace header (see TraceContext).

// IDGen issues process-unique, well-distributed 64-bit identifiers for
// traces and spans. It is an atomic counter run through a splitmix64
// finalizer, so IDs from one generator never collide, IDs from
// differently seeded generators (one per process) collide with
// negligible probability, and a fixed seed makes a test's IDs
// deterministic. Next never returns 0 — 0 always means "untraced".
type IDGen struct {
	state atomic.Uint64
}

// NewIDGen returns a generator. A zero seed derives one from the wall
// clock so concurrently started daemons diverge; tests pass a fixed
// non-zero seed for reproducible IDs.
func NewIDGen(seed uint64) *IDGen {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	g := &IDGen{}
	g.state.Store(seed)
	return g
}

// Next returns the next identifier. Safe for concurrent use.
func (g *IDGen) Next() uint64 {
	x := g.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// TraceContext is the portable part of a trace: the trace and the
// current span. It crosses process boundaries as the X-Dcat-Trace
// header value (see TraceHeader in internal/cluster).
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Zero reports whether the context carries no trace.
func (tc TraceContext) Zero() bool { return tc.TraceID == 0 }

// String renders the context in the on-the-wire header format:
// two 16-digit lowercase hex words joined by a dash,
// e.g. "00000000000004d2-000000000000162e".
func (tc TraceContext) String() string {
	return fmt.Sprintf("%016x-%016x", tc.TraceID, tc.SpanID)
}

// ParseTraceContext parses the String format. It returns the zero
// context (not an error) for an empty string, so callers can pass a
// missing header straight through.
func ParseTraceContext(s string) (TraceContext, error) {
	if s == "" {
		return TraceContext{}, nil
	}
	if len(s) != 33 || s[16] != '-' {
		return TraceContext{}, fmt.Errorf("obs: bad trace context %q: want 16hex-16hex", s)
	}
	var tc TraceContext
	if _, err := fmt.Sscanf(s, "%16x-%16x", &tc.TraceID, &tc.SpanID); err != nil {
		return TraceContext{}, fmt.Errorf("obs: bad trace context %q: %w", s, err)
	}
	return tc, nil
}

// traceSink stamps a fresh root span onto every untraced event.
type traceSink struct {
	next Sink
	gen  *IDGen
}

func (s traceSink) Emit(ev Event) {
	if ev.TraceID == 0 {
		id := s.gen.Next()
		ev.TraceID = id
		ev.SpanID = id
		ev.ParentID = 0
	}
	s.next.Emit(ev)
}

// Trace wraps a sink so every untraced event it sees is born as the
// root span of a fresh trace (TraceID == SpanID) — how a controller
// rule firing starts a causality chain without the controller knowing
// about tracing. Events that already carry a TraceID pass through
// untouched, preserving chains built upstream. The
// stamp is a field write on a value struct: no allocation on the emit
// path. A nil sink or generator disables the wrapper.
func Trace(next Sink, gen *IDGen) Sink {
	if next == nil {
		return nil
	}
	if gen == nil {
		return next
	}
	return traceSink{next: next, gen: gen}
}
