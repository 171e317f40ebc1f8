package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/resctrl"
)

// ctl-phases: the controller alone, on the path a deployed dcatd takes —
// a resctrl tree (a mock one: real schemata and cpus_list file writes),
// the journal plus a JSONL decision trace — with no simulator behind
// it. Counters come from the closed-form tenant models in models.go.
const (
	ctlTicksPerPolicy = 175_000 // at refSeconds
	ctlWays           = 20
	ctlClosids        = 16
	ctlCPUs           = 18
	// ctlWarmTicks is untimed ticks per policy during set-up: every tenant
	// goes through both of its phases at least twice (the longest period
	// is 3900 ticks), so the learning policies start the timed region with
	// a model — and set-up is mostly controller work, not the creation of
	// three mock trees, whose cost on ext4 moved setup_s by a third between
	// sets of runs.
	ctlWarmTicks = 20_000
	ctlTraceFile = "trace.jsonl"
)

var ctlPolicies = []string{"reactive", "predictive", "lfoc"}

// ctlRig is one policy's controller on its own resctrl tree.
type ctlRig struct {
	policy  string
	backend *resctrl.Backend
	mgr     *cat.Manager
	ctl     *core.Controller
	file    *perf.File
	fleet   *tenantFleet
	reader  *countingReader // traced runs only
	tick    int             // model time: ticks stepped so far
}

type ctlPhases struct {
	rc    *runCtx
	rigs  []*ctlRig
	trace *obs.FileSink
	path  string // the decision trace

	total int // ticks timed
}

func setupCtlPhases(rc *runCtx) (instance, error) {
	c := &ctlPhases{rc: rc, path: filepath.Join(rc.dir, ctlTraceFile)}
	fs, err := obs.NewFileSink(c.path)
	if err != nil {
		return nil, err
	}
	c.trace = fs
	// One sink chain for all three controllers, as one daemon would have:
	// the bounded journal plus the append-only trace file.
	var sink obs.Sink = obs.Multi(obs.NewJournal(4096), fs)
	if rc.wrap {
		sink = &timedSink{inner: sink, tr: rc.tr, key: rc.tr.key("obs", "emit")}
	}
	for _, name := range ctlPolicies {
		rig, err := newCtlRig(rc, name, sink)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("policy %s: %w", name, err)
		}
		c.rigs = append(c.rigs, rig)
	}
	return c, nil
}

func newCtlRig(rc *runCtx, name string, sink obs.Sink) (*ctlRig, error) {
	root := filepath.Join(rc.dir, "resctrl-"+name)
	if err := resctrl.CreateMockTree(root, ctlWays, ctlClosids, ctlCPUs); err != nil {
		return nil, err
	}
	rb, err := resctrl.NewBackend(root)
	if err != nil {
		return nil, err
	}
	r := &ctlRig{policy: name, backend: rb, file: perf.NewFile(ctlCPUs), fleet: newTenantFleet(rc.cfg.Seed)}
	var backend cat.Backend = rb
	var counters perf.Reader = r.file
	factory, err := policy.New(name)
	if err != nil {
		return nil, err
	}
	if rc.wrap {
		backend = wrapBackend(backend, rc.tr)
		r.reader = &countingReader{inner: counters}
		counters = r.reader
		inner := factory
		factory = func() policy.AllocationPolicy { return wrapPolicy(inner(), rc.tr) }
	}
	r.mgr, err = cat.NewManager(backend)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.NewPolicy = factory
	r.ctl, err = core.New(cfg, r.mgr, counters, r.fleet.targets())
	if err != nil {
		return nil, err
	}
	r.ctl.SetSink(sink)
	warm := ctlWarmTicks
	if rc.cfg.Small {
		warm = 100
	}
	for ; r.tick < warm; r.tick++ {
		r.fleet.step(r.tick, r.ctl, r.file)
		if err := r.ctl.Tick(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (c *ctlPhases) close() {
	if c.trace != nil {
		c.trace.Close()
		c.trace = nil
	}
}

func (c *ctlPhases) run(out *outcome) error {
	n := c.rc.cfg.scaled(ctlTicksPerPolicy)
	tr := c.rc.tr
	kTick := tr.key("core", "tick")
	lat := &dist{vals: make([]float64, 0, n*len(c.rigs))} // one tick, ms
	var tickNS int64
	for _, rig := range c.rigs {
		var rigNS int64
		for t := 0; t < n; t++ {
			rig.fleet.step(rig.tick, rig.ctl, rig.file)
			rig.tick++
			start := time.Now()
			tr.push(kTick)
			err := rig.ctl.Tick()
			tr.pop()
			d := int64(time.Since(start))
			out.Attempted++
			if err != nil {
				out.Failed++
				out.problemf("%s tick %d: %v", rig.policy, t, err)
			}
			lat.add(float64(d) / 1e6)
			rigNS += d
		}
		out.set("policy."+rig.policy+".ticks_per_s", float64(n)/(float64(rigNS)/1e9), n)
		tickNS += rigNS
		c.total += n
		rig.verify(out)
	}
	// Ticks per second of time spent inside Tick (the tenant models' own
	// step is the benchmark's cost, not the controller's), equal ticks
	// under each policy: a slowdown in any one policy moves the rate and
	// the tick-latency distribution.
	out.setHeadline(float64(c.total), float64(tickNS)/1e9, lat)

	if err := c.trace.Close(); err != nil {
		out.problemf("decision trace: %v", err)
	}
	c.trace = nil
	data, err := os.ReadFile(c.path)
	if err != nil {
		return err
	}
	hsh := sha256.New()
	hsh.Write(data)
	for _, rig := range c.rigs {
		for _, g := range rig.mgr.Groups() {
			fmt.Fprintf(hsh, "%s %s %d %s\n", rig.policy, g.Name, g.COS, g.Mask)
		}
	}
	out.Digest = hex.EncodeToString(hsh.Sum(nil))
	return nil
}

// verify reads every class of service back from the resctrl tree and
// checks it against what cat.Manager believes it installed.
func (r *ctlRig) verify(out *outcome) {
	if err := r.mgr.Validate(); err != nil {
		out.problemf("%s: %v", r.policy, err)
	}
	for _, g := range r.mgr.Groups() {
		got, err := r.backend.Schemata(g.COS)
		want := "L3:0=" + g.Mask.String()
		if err != nil || got != want {
			out.problemf("%s: COS %d (%s) schemata %q, manager believes %q (err %v)",
				r.policy, g.COS, g.Name, got, want, err)
		}
	}
}

func (c *ctlPhases) layers(out *outcome) error {
	st := c.rc.tr.stats()
	tick := st[spanKey{"core", "tick"}]
	if tick == nil {
		return fmt.Errorf("traced run recorded no tick spans")
	}
	var reads uint64
	for _, r := range c.rigs {
		reads += r.reader.reads
	}
	readNS := perfReadCost(c.rigs[0].file)
	out.set("perf.read_ns_per_counter", readNS, perfReadLoops)
	controllerLayers(out, st, tick, reads, readNS, ctlPolicies...)
	out.set("core.tick_share", 1, tick.Count) // nothing else runs here

	data, err := os.ReadFile(c.path)
	if err != nil {
		return err
	}
	events := bytes.Count(data, []byte{'\n'})
	kilo := float64(tick.Count) / 1000
	out.set("core.transitions_per_kilotick", float64(bytes.Count(data, []byte(`"kind":"StateTransition"`)))/kilo, tick.Count)
	out.set("core.phase_changes_per_kilotick", float64(bytes.Count(data, []byte(`"kind":"PhaseChange"`)))/kilo, tick.Count)
	if events > 0 {
		out.set("obs.filesink_bytes_per_event", float64(len(data))/float64(events), events)
	}
	return nil
}

// controllerLayers derives the core / policy / cat / obs metrics from
// the spans recorded around and inside Controller.Tick. reads is how
// many counters the controller read and readNS what one read costs, so
// counter-read time can be taken out of core's self time without a
// clock call per read.
func controllerLayers(out *outcome, st map[spanKey]*layerStat, tick *layerStat, reads uint64, readNS float64, policies ...string) {
	ticks := float64(tick.Count)
	out.setPctScaled("core.tick_us_p50", &tick.durs, 0.5, 1e-3)
	out.setPctScaled("core.tick_us_p99", &tick.durs, 0.99, 1e-3)
	self := float64(tick.SelfNS) - float64(reads)*readNS
	out.set("core.self_us_per_tick", self/1e3/ticks, tick.Count)
	for _, p := range policies {
		if ps := st[spanKey{"policy", p + ".propose"}]; ps != nil {
			out.setPctScaled("policy."+p+".propose_us_p50", &ps.durs, 0.5, 1e-3)
			out.setPctScaled("policy."+p+".propose_us_p99", &ps.durs, 0.99, 1e-3)
		}
	}
	if ap := st[spanKey{"cat", "apply"}]; ap != nil {
		out.setPctScaled("cat.apply_us_p50", &ap.durs, 0.5, 1e-3)
		out.setPctScaled("cat.apply_us_p99", &ap.durs, 0.99, 1e-3)
		out.set("cat.applies_per_kilotick", float64(ap.Count)/ticks*1000, ap.Count)
	}
	if em := st[spanKey{"obs", "emit"}]; em != nil {
		out.set("obs.emit_ns_per_event", float64(em.TotalNS)/float64(em.Count), em.Count)
		out.set("obs.events_per_kilotick", float64(em.Count)/ticks*1000, em.Count)
	}
}

const perfReadLoops = 1 << 20

var perfReadSink uint64

// perfReadCost times perf.Reader.ReadCounter in a direct loop (ns per
// read).
func perfReadCost(r perf.Reader) float64 {
	var sum uint64
	start := time.Now()
	for i := 0; i < perfReadLoops; i++ {
		sum += r.ReadCounter(i%ctlCPUs, perf.Event(i%perf.NumEvents))
	}
	d := time.Since(start)
	perfReadSink += sum
	return float64(d) / perfReadLoops
}
