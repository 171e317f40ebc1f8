package main

import (
	"context"
	"net/http"
	"strconv"

	"repro/internal/bits"
	"repro/internal/cat"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The wrappers in this file are how layers are measured from outside:
// each sits on a seam the code already exports, forwards every call
// unchanged, and records a span around it. They are installed only on
// traced runs. None may change behaviour — the tests run sim-steady and
// ctl-phases with and without them and compare digests.

// timedGen presents any generator to the host as a BulkGenerator and
// times one block's worth of NextLine calls at a time: per-line clock
// reads would cost more than the call they measure. The stream is the
// inner generator's, line for line.
type timedGen struct {
	workload.Generator
	tr    *tracer
	key   uint16
	lines uint64
}

func (g *timedGen) NextLines(buf []uint64) {
	g.tr.push(g.key)
	if bulk, ok := g.Generator.(workload.BulkGenerator); ok {
		bulk.NextLines(buf)
	} else {
		for i := range buf {
			buf[i] = g.Generator.NextLine()
		}
	}
	g.tr.pop()
	g.lines += uint64(len(buf))
}

// timedPolicy spans every Propose. wrapPolicy keeps the optional
// Stateful / Independent interfaces visible to the controller, which
// discovers them by type assertion.
type timedPolicy struct {
	inner policy.AllocationPolicy
	tr    *tracer
	key   uint16
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Propose(v *policy.View, g *policy.Grants) {
	p.tr.push(p.key)
	p.inner.Propose(v, g)
	p.tr.pop()
}

type timedStatefulPolicy struct {
	*timedPolicy
	policy.Stateful
}

type timedIndependentPolicy struct {
	*timedPolicy
	policy.Independent
}

type timedStatefulIndependentPolicy struct {
	*timedPolicy
	policy.Stateful
	policy.Independent
}

func wrapPolicy(inner policy.AllocationPolicy, tr *tracer) policy.AllocationPolicy {
	base := &timedPolicy{inner: inner, tr: tr, key: tr.key("policy", inner.Name()+".propose")}
	st, stateful := inner.(policy.Stateful)
	ind, independent := inner.(policy.Independent)
	switch {
	case stateful && independent:
		return timedStatefulIndependentPolicy{base, st, ind}
	case stateful:
		return timedStatefulPolicy{base, st}
	case independent:
		return timedIndependentPolicy{base, ind}
	default:
		return base
	}
}

// timedBackend spans every Apply (one schemata + cpus_list write on the
// resctrl backend, a mask store on the simulated one).
type timedBackend struct {
	inner cat.Backend
	tr    *tracer
	apply uint16
}

func (b *timedBackend) TotalWays() int { return b.inner.TotalWays() }

func (b *timedBackend) Apply(cos int, mask bits.CBM, cores []int) error {
	b.tr.push(b.apply)
	err := b.inner.Apply(cos, mask, cores)
	b.tr.pop()
	return err
}

// timedFlushBackend additionally forwards the §6 flush pass; dropping
// it would change what the simulated LLC holds.
type timedFlushBackend struct {
	timedBackend
	flusher cat.WayFlusher
	flush   uint16
}

func (b *timedFlushBackend) FlushWays(mask bits.CBM) error {
	b.tr.push(b.flush)
	err := b.flusher.FlushWays(mask)
	b.tr.pop()
	return err
}

func wrapBackend(inner cat.Backend, tr *tracer) cat.Backend {
	base := timedBackend{inner: inner, tr: tr, apply: tr.key("cat", "apply")}
	if f, ok := inner.(cat.WayFlusher); ok {
		return &timedFlushBackend{timedBackend: base, flusher: f, flush: tr.key("cat", "flushways")}
	}
	return &base
}

// timedSink spans every Emit into the journal + file sink chain.
type timedSink struct {
	inner obs.Sink
	tr    *tracer
	key   uint16
}

func (s *timedSink) Emit(ev obs.Event) {
	s.tr.push(s.key)
	s.inner.Emit(ev)
	s.tr.pop()
}

// countingReader counts counter reads. It does not time them: a read is
// a few nanoseconds, two clock reads are fifty, so the per-read cost is
// measured by a direct loop instead (perfReadCost) and multiplied out.
type countingReader struct {
	inner perf.Reader
	reads uint64
}

func (r *countingReader) ReadCounter(core int, e perf.Event) uint64 {
	r.reads++
	return r.inner.ReadCounter(core, e)
}

// Fleet requests cross goroutines, so their parent span travels the way
// a real trace context does: in the request. The client side stores the
// span id in the context it hands cluster.Client; spanTransport copies
// it into a header; spanHandler reads it back on the server goroutine.
type spanCtxKey struct{}

const spanHeader = "X-Bench-Span"

func withSpan(ctx context.Context, id uint32) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

type spanTransport struct{ next http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanCtxKey{}).(uint32); ok && id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(uint64(id), 10))
	}
	return t.next.RoundTrip(r)
}

// spanHandler spans each request by URL path under the client's span.
type spanHandler struct {
	next http.Handler
	tr   *tracer
	keys map[string]uint16 // by URL path
}

func newSpanHandler(next http.Handler, tr *tracer, layerOf map[string][2]string) *spanHandler {
	h := &spanHandler{next: next, tr: tr, keys: make(map[string]uint16, len(layerOf))}
	for path, ln := range layerOf {
		h.keys[path] = tr.key(ln[0], ln[1])
	}
	return h
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, ok := h.keys[r.URL.Path]
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 32)
	id := h.tr.begin(uint32(parent), key)
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}
