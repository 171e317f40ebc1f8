package core

import (
	"strings"
	"testing"

	"repro/internal/cat"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

// multiRig builds a 2-socket Controller over fake backends: one
// workload per socket, scripted via a shared 4-core counter file
// (cores 0-1 on socket 0, cores 2-3 on socket 1).
type multiRig struct {
	t         *testing.T
	file      *perf.File
	multi     *Controller
	coreOf    map[string]int
	behaviors map[string]behavior
}

func newMultiRig(t *testing.T, behaviors map[string]behavior) *multiRig {
	t.Helper()
	file := perf.NewFile(4)
	specs := make([]SocketSpec, 2)
	for s := 0; s < 2; s++ {
		mgr, err := cat.NewManager(&fakeBackend{ways: 20})
		if err != nil {
			t.Fatal(err)
		}
		name := []string{"w0", "w1"}[s]
		specs[s] = SocketSpec{
			Socket:  s,
			Mgr:     mgr,
			Targets: []Target{{Name: name, Cores: []int{2 * s}, BaselineWays: 3}},
		}
	}
	m, err := NewMulti(DefaultConfig(), file, specs)
	if err != nil {
		t.Fatal(err)
	}
	return &multiRig{
		t: t, file: file, multi: m,
		coreOf:    map[string]int{"w0": 0, "w1": 2},
		behaviors: behaviors,
	}
}

// socketOf reports which socket's loop manages a workload.
func socketOf(c *Controller, name string) (int, bool) {
	w, ok := c.ws[name]
	if !ok {
		return 0, false
	}
	return w.l.socket, true
}

func (r *multiRig) tick() {
	r.t.Helper()
	for name, core := range r.coreOf {
		s := r.behaviors[name](r.multi.Ways(name))
		bank := r.file.Core(core)
		bank.Add(perf.L1Hits, s.L1Ref)
		bank.Add(perf.LLCReferences, s.LLCRef)
		bank.Add(perf.LLCMisses, s.LLCMiss)
		bank.Add(perf.RetiredInstructions, s.RetIns)
		bank.Add(perf.UnhaltedCycles, s.Cycles)
	}
	if err := r.multi.Tick(); err != nil {
		r.t.Fatal(err)
	}
}

func TestNewMultiValidation(t *testing.T) {
	file := perf.NewFile(4)
	mgr := func() *cat.Manager {
		m, err := cat.NewManager(&fakeBackend{ways: 20})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	target := []Target{{Name: "w", Cores: []int{0}, BaselineWays: 3}}
	if _, err := NewMulti(DefaultConfig(), file, nil); err == nil {
		t.Error("empty specs should be rejected")
	}
	if _, err := NewMulti(DefaultConfig(), file, []SocketSpec{
		{Socket: 0, Mgr: mgr(), Targets: target},
		{Socket: 0, Mgr: mgr(), Targets: []Target{{Name: "x", Cores: []int{1}, BaselineWays: 3}}},
	}); err == nil {
		t.Error("duplicate socket should be rejected")
	}
	if _, err := NewMulti(DefaultConfig(), file, []SocketSpec{
		{Socket: 0, Mgr: mgr(), Targets: target},
		{Socket: 1, Mgr: mgr(), Targets: target},
	}); err == nil {
		t.Error("duplicate workload name across sockets should be rejected")
	}
}

// TestSocketLoopsAreIndependent runs a cache-hungry workload on
// socket 0 beside a streaming one on socket 1 and checks each socket's
// loop categorizes its own tenant from its own counters — socket 0
// grows its receiver while socket 1 demotes its streamer, with no
// cross-talk through the shared perf file.
func TestSocketLoopsAreIndependent(t *testing.T) {
	r := newMultiRig(t, map[string]behavior{
		"w0": mlrBehavior(9),
		"w1": streamBehavior(),
	})
	for i := 0; i < 12; i++ {
		r.tick()
	}
	if s, ok := socketOf(r.multi, "w0"); !ok || s != 0 {
		t.Errorf("socketOf(w0)=(%d,%v) want (0,true)", s, ok)
	}
	if s, ok := socketOf(r.multi, "w1"); !ok || s != 1 {
		t.Errorf("socketOf(w1)=(%d,%v) want (1,true)", s, ok)
	}
	if got := r.multi.Ways("w0"); got <= 3 {
		t.Errorf("socket-0 receiver stuck at %d ways; want growth above baseline", got)
	}
	st, ok := r.multi.StateOf("w1")
	if !ok || st != StateStreaming {
		t.Errorf("socket-1 streamer state=%v want %v", st, StateStreaming)
	}
	if st, _ := r.multi.StateOf("w0"); st == StateStreaming {
		t.Error("socket-0 receiver misclassified as streaming")
	}
	if r.multi.Ways("nope") != 0 {
		t.Error("unknown workload should report 0 ways")
	}
	if _, ok := r.multi.StateOf("nope"); ok {
		t.Error("unknown workload should have no state")
	}
}

func TestMultiSnapshotTickOrder(t *testing.T) {
	r := newMultiRig(t, map[string]behavior{
		"w0": mlrBehavior(9),
		"w1": streamBehavior(),
	})
	r.tick()
	snap := r.multi.Snapshot()
	if len(snap) != 2 || snap[0].Name != "w0" || snap[1].Name != "w1" {
		t.Fatalf("snapshot not in ascending socket order: %+v", snap)
	}
	if l := r.multi.loops; len(l) != 2 || l[0].socket != 0 || l[1].socket != 1 {
		t.Errorf("loops not in ascending socket order")
	}
}

// captureSink records emitted events for assertions.
type captureSink struct{ events []obs.Event }

func (c *captureSink) Emit(ev obs.Event) { c.events = append(c.events, ev) }

func TestMultiSinkStampsSocket(t *testing.T) {
	r := newMultiRig(t, map[string]behavior{
		"w0": mlrBehavior(9),
		"w1": streamBehavior(),
	})
	sink := &captureSink{}
	r.multi.SetSink(sink)
	for i := 0; i < 12; i++ {
		r.tick()
	}
	if len(sink.events) == 0 {
		t.Fatal("no events emitted")
	}
	seen := map[int]bool{}
	for _, ev := range sink.events {
		want, ok := socketOf(r.multi, ev.Workload)
		if !ok {
			continue
		}
		if ev.Socket != want {
			t.Fatalf("event for %s stamped socket %d, want %d: %+v", ev.Workload, ev.Socket, want, ev)
		}
		seen[ev.Socket] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("expected events from both sockets, saw %v", seen)
	}
}

// TestMultiRegisterMetrics registers both sockets' families on one
// registry: same metric names must coexist (distinguished by the
// socket constant label) and both must appear in the exposition.
func TestMultiRegisterMetrics(t *testing.T) {
	r := newMultiRig(t, map[string]behavior{
		"w0": mlrBehavior(9),
		"w1": streamBehavior(),
	})
	reg := telemetry.NewRegistry()
	r.multi.RegisterMetrics(reg) // would panic on a name collision
	for i := 0; i < 3; i++ {
		r.tick()
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`dcat_pool_free_ways{socket="0"}`,
		`dcat_pool_free_ways{socket="1"}`,
		`dcat_tick_seconds_count{socket="0"}`,
		`dcat_tick_seconds_count{socket="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s\n%s", want, out)
		}
	}
}
