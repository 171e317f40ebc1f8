package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans of one traced run in memory. Spans are
// recorded from the benchmark's own files, around the calls into each
// layer (spans inside the program are a later change), and written out
// when the run ends. A nil *tracer records nothing, so untraced runs
// carry neither wrappers nor timing calls.
//
// A span id is its index+1, so 0 means "no parent".
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	keys  []spanKey
	byKey map[spanKey]uint16
	// stack is the open-span chain of the single goroutine driving the
	// sim-* and ctl-phases loops; concurrent (fleet) code passes parents
	// explicitly instead.
	stack []uint32
	// timedFrom is the index of the first span of the timed region: what
	// came before is set-up (constructors, warm-up) and is reported apart.
	timedFrom int
}

type spanKey struct{ layer, name string }

type span struct {
	parent     uint32
	key        uint16
	start, end int64 // ns since tracer start
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byKey: make(map[spanKey]uint16)}
}

// key interns a (layer, name) pair; resolve keys once, outside loops.
func (t *tracer) key(layer, name string) uint16 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := spanKey{layer, name}
	if id, ok := t.byKey[k]; ok {
		return id
	}
	id := uint16(len(t.keys))
	t.keys = append(t.keys, k)
	t.byKey[k] = id
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under an explicit parent and returns its id.
func (t *tracer) begin(parent uint32, key uint16) uint32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, key: key, start: start})
	id := uint32(len(t.spans))
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin and returns its duration in ns.
func (t *tracer) end(id uint32) int64 {
	if t == nil || id == 0 {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.end = now
	d := now - s.start
	t.mu.Unlock()
	return d
}

// push opens a span under the innermost open span of the driving
// goroutine; pop closes it.
func (t *tracer) push(key uint16) {
	if t == nil {
		return
	}
	var parent uint32
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, t.begin(parent, key))
}

func (t *tracer) pop() int64 {
	if t == nil {
		return 0
	}
	n := len(t.stack)
	id := t.stack[n-1]
	t.stack = t.stack[:n-1]
	return t.end(id)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerStat aggregates the closed spans of one (layer, name).
type layerStat struct {
	Count   int
	TotalNS int64
	// SelfNS is the total minus the part child spans cover.
	SelfNS int64
	durs   dist // per-span duration, ns
}

// markTimed records that everything from here on belongs to the timed
// region.
func (t *tracer) markTimed() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.timedFrom = len(t.spans)
	t.mu.Unlock()
}

// stats computes per-key totals, self times and duration samples over
// the timed region; setupStats does the same over what preceded it.
// Children are assumed to nest inside their parent (they do: every
// child is opened and closed between the parent's begin and end).
func (t *tracer) stats() map[spanKey]*layerStat { return t.statsOf(true) }

func (t *tracer) setupStats() map[spanKey]*layerStat { return t.statsOf(false) }

func (t *tracer) statsOf(timed bool) map[spanKey]*layerStat {
	out := make(map[spanKey]*layerStat)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= s.start {
			child[s.parent-1] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if (i >= t.timedFrom) != timed {
			continue
		}
		if s.end < s.start {
			continue // never closed (a failed operation)
		}
		k := t.keys[s.key]
		st := out[k]
		if st == nil {
			st = &layerStat{}
			out[k] = st
		}
		d := s.end - s.start
		st.Count++
		st.TotalNS += d
		st.SelfNS += d - child[i]
		st.durs.add(float64(d))
	}
	return out
}

// maxSpansWritten bounds the span file: a traced ctl-phases run records
// a few million spans, and a reader wants the shape of the first
// seconds, not a gigabyte of JSON. The statistics always use every
// span; the file says how many it dropped.
const maxSpansWritten = 200_000

// write dumps the spans as one JSON document:
//
//	{"workload":..., "total":N, "written":M, "spans":[
//	  {"id":1,"parent":0,"layer":"host","name":"interval","start_ns":..,"end_ns":..}, ...]}
func (t *tracer) write(path, workload string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	w := bufio.NewWriter(f)
	n := len(t.spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"total\":%d,\"written\":%d,\"spans\":[\n", workload, len(t.spans), n)
	for i := 0; i < n; i++ {
		s := t.spans[i]
		k := t.keys[s.key]
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"layer\":%q,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			i+1, s.parent, k.layer, k.name, s.start, s.end, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}

// parentMinusChild returns, for every closed span of (layer, name) that
// has a parent, the parent's duration minus the span's own — e.g. a
// client request minus the handler it caused is the time spent in
// transport and encoding.
func (t *tracer) parentMinusChild(layer, name string) *dist {
	d := &dist{}
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key, ok := t.byKey[spanKey{layer, name}]
	if !ok {
		return d
	}
	for i, s := range t.spans {
		if i < t.timedFrom || s.key != key || s.parent == 0 || s.end < s.start {
			continue
		}
		p := t.spans[s.parent-1]
		if p.end < p.start {
			continue
		}
		d.add(float64((p.end - p.start) - (s.end - s.start)))
	}
	return d
}
