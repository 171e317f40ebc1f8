// Command dcat-agent is the per-host member of a dCat cluster: the
// same control loop dcatd runs (resctrl + MSR on hardware, the
// simulated socket in -demo mode), wrapped with cluster duties —
// enrollment, periodic statistics reports, heartbeats, and application
// of coordinator allocation hints.
//
// The coordinator is strictly optional at runtime: if it is down or
// unreachable the agent keeps running its local dCat loop unchanged
// and re-enrolls when the coordinator returns.
//
//	dcat-agent -coord http://coord:9400 -name host-a -demo
//	dcat-agent -coord http://coord:9400 -name host-a -demo -sockets 2
//	dcat-agent -coord http://coord:9400 -name host-b \
//	    -group web=0-3@4 -group batch=4-7@2 -period 1s
//
// With -demo -sockets N the agent simulates a NUMA host and executes
// coordinator placement directives (live cross-socket migrations).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemoncfg"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/resctrl"
	"repro/internal/telemetry"
)

// obsWiring carries the agent's observability selections: the metrics
// registry (shared with the cluster client's RPC instrumentation) and
// the decision-trace destinations.
type obsWiring struct {
	daemoncfg.Obs
	reg       *telemetry.Registry
	streamBuf int
}

func main() {
	var groups daemoncfg.Groups
	var (
		name      = flag.String("name", defaultName(), "agent name, unique per coordinator")
		coord     = flag.String("coord", "", "coordinator base URL, e.g. http://coord:9400 (empty = standalone)")
		period    = flag.Duration("period", time.Second, "controller period")
		httpAddr  = flag.String("http", "", "serve local /status, /metrics, /healthz on this address")
		demo      = flag.Bool("demo", false, "run the simulated socket instead of hardware")
		intervals = flag.Int("intervals", 0, "demo length in periods (0 = until interrupted)")
		root      = flag.String("resctrl", resctrl.DefaultRoot, "resctrl filesystem root (hardware mode)")
		msrRoot   = flag.String("msr", "/dev/cpu", "msr device root (hardware mode)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request coordinator timeout")
		retries   = flag.Int("retries", 3, "coordinator request retries (exponential backoff with jitter)")
		streamBuf = flag.Int("stream-buffer", 4096, "decision events buffered for upload to the fleet flight recorder (drop-oldest when full)")
		sockets   = flag.Int("sockets", 0, "demo NUMA sockets (0 = single-socket demo); >1 enables placement directives")
	)
	obsSel := daemoncfg.ObsFlags(flag.CommandLine)
	flag.Var(&groups, "group", "managed group as name=cpus@baseline (repeatable, hardware mode)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ob := obsWiring{Obs: *obsSel, reg: telemetry.NewRegistry(), streamBuf: *streamBuf}
	var client *cluster.Client
	if *coord != "" {
		var err error
		client, err = cluster.NewClient(cluster.ClientConfig{
			BaseURL:    *coord,
			Timeout:    *timeout,
			MaxRetries: *retries,
			Metrics:    cluster.NewRPCMetrics(ob.reg),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcat-agent:", err)
			os.Exit(1)
		}
	}

	var err error
	if *demo {
		err = runDemo(ctx, *name, client, *httpAddr, *period, *intervals, *sockets, ob)
	} else {
		err = runHardware(ctx, *name, client, *httpAddr, *period, *root, *msrRoot, groups, ob)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dcat-agent:", err)
		os.Exit(1)
	}
}

func defaultName() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "dcat-agent"
}

// simLocal adapts a simulation to the agent's Local surface: each tick
// advances the simulated host one interval, then runs the controller
// set, the same path dcatd -demo drives. It also implements
// cluster.Mover, so on multi-socket hosts coordinator placement
// directives become live migrations.
type simLocal struct {
	sim *dcat.Simulation
}

func (s *simLocal) Tick() error             { return s.sim.Step() }
func (s *simLocal) Snapshot() []core.Status { return s.sim.Snapshot() }
func (s *simLocal) Ticks() int              { return s.sim.Controller().Ticks() }
func (s *simLocal) TotalWays() int          { return s.sim.Controller().TotalWays() }

func (s *simLocal) SetWayCap(name string, ways int) bool {
	return s.sim.Controller().SetWayCap(name, ways)
}

func (s *simLocal) MigrateVM(name string, toSocket int) error {
	return s.sim.MigrateVM(name, toSocket)
}

// runDemo runs the agent over the simulated host (MLR + MLOAD +
// lookbusy tenants, as in dcatd -demo). With -sockets N > 1 the demo
// becomes a NUMA host: every tenant starts crowded onto socket 0 while
// the other sockets idle with one lookbusy each — the imbalanced
// layout a coordinator placement engine exists to fix. The NUMA demo
// trades the single 8 MB MLR for three 16 MB ones (the placement
// experiment's tenancy): together they want more ways than one socket
// has, so the pool genuinely exhausts and a coordinator running
// -placement has a starved Receiver to move.
func runDemo(ctx context.Context, name string, client *cluster.Client, httpAddr string, period time.Duration, intervals, sockets int, ob obsWiring) error {
	sim, err := dcat.NewSimulation(dcat.SimConfig{Sockets: sockets})
	if err != nil {
		return err
	}
	type tenant struct {
		name string
		w    dcat.Workload
	}
	var vms []tenant
	if sockets > 1 {
		for i, seed := range []int64{1, 2, 3} {
			m, err := sim.NewMLROn(0, 16<<20, seed)
			if err != nil {
				return err
			}
			vms = append(vms, tenant{fmt.Sprintf("mlr-%c", 'a'+i), m})
		}
	} else {
		mlr, err := sim.NewMLROn(0, 8<<20, 1)
		if err != nil {
			return err
		}
		vms = append(vms, tenant{"mlr", mlr})
	}
	mload, err := sim.NewMLOADOn(0, 60<<20)
	if err != nil {
		return err
	}
	lb, err := sim.NewLookbusyOn(0)
	if err != nil {
		return err
	}
	vms = append(vms, tenant{"mload", mload}, tenant{"lookbusy", lb})
	for _, vm := range vms {
		if err := sim.AddVMOn(0, vm.name, 2, vm.w); err != nil {
			return err
		}
	}
	for s := 1; s < sockets; s++ {
		idle, err := sim.NewLookbusyOn(s)
		if err != nil {
			return err
		}
		if err := sim.AddVMOn(s, fmt.Sprintf("idle-%d", s), 2, idle); err != nil {
			return err
		}
	}
	baselines := make(map[string]int)
	for _, vm := range sim.Host().VMs() {
		baselines[vm.Name] = 3
	}
	if err := sim.Start(dcat.DefaultConfig(), baselines); err != nil {
		return err
	}
	local := &simLocal{sim: sim}
	var mover cluster.Mover
	if sockets > 1 {
		mover = local
	}
	ctl := sim.Controller()
	return runAgent(ctx, name, client, httpAddr, period, intervals, local, ctl.SetSink, ctl.RegisterMetrics, mover, ob)
}

// runHardware runs the agent over resctrl + MSR counters, dcatd's
// production path.
func runHardware(ctx context.Context, name string, client *cluster.Client, httpAddr string, period time.Duration, root, msrRoot string, groups daemoncfg.Groups, ob obsWiring) error {
	if len(groups) == 0 {
		return fmt.Errorf("no -group flags; nothing to manage (did you mean -demo?)")
	}
	ctl, err := daemoncfg.OpenHardware(dcat.DefaultConfig(), root, msrRoot, groups)
	if err != nil {
		return err
	}
	return runAgent(ctx, name, client, httpAddr, period, 0, ctl, ctl.SetSink, ctl.RegisterMetrics, nil, ob)
}

// runAgent wraps the local loop in a cluster agent, serves local
// status, and ticks until the context is canceled (or the demo
// interval budget is spent). setSink and registerMetrics are the
// loop's own — a bare controller on hardware, the controller set in
// -demo. The controller's decision events fan out to the in-memory
// journal, the optional trace file, the agent's tally so the
// coordinator sees fleet-wide transition rates, and — in coordinator
// mode — the flight-recorder streamer that uploads every event to the
// fleet store.
func runAgent(ctx context.Context, name string, client *cluster.Client, httpAddr string, period time.Duration, intervals int, local cluster.Local,
	setSink func(obs.Sink), registerMetrics func(*telemetry.Registry), mover cluster.Mover, ob obsWiring) error {
	var streamer *cluster.Streamer
	if client != nil {
		var err error
		streamer, err = cluster.NewStreamer(cluster.StreamerConfig{
			Client:     client,
			Epoch:      time.Now().UnixNano(),
			BufferSize: ob.streamBuf,
			Metrics:    cluster.NewStreamerMetrics(ob.reg),
		})
		if err != nil {
			return err
		}
	}
	agent, err := cluster.NewAgent(cluster.AgentConfig{
		Name:       name,
		StatusAddr: httpAddr,
		Client:     client,
		Streamer:   streamer,
		Mover:      mover,
	}, local)
	if err != nil {
		return err
	}
	opts, chain, closeTrace, err := ob.Open(ob.reg)
	if err != nil {
		return err
	}
	defer closeTrace()
	if client != nil {
		chain = obs.Multi(chain, agent.EventSink(), streamer)
	}
	setSink(chain)
	registerMetrics(ob.reg)
	// The agent's own events (placement executions) take the same path
	// as the controller's, so they reach the fleet recorder too.
	agent.SetSink(chain)
	if httpAddr != "" {
		src := httpstatus.Locked{Src: localSource{local}, Do: agent.Do}
		srv := httpstatus.ServeOpts(httpAddr, src, opts)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
		fmt.Printf("dcat-agent: status on http://%s/status\n", httpAddr)
	}
	if client != nil {
		fmt.Printf("dcat-agent: %q reporting to the coordinator every %s\n", name, period)
	} else {
		fmt.Printf("dcat-agent: %q running standalone every %s\n", name, period)
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	done := 0
	for {
		select {
		case <-ctx.Done():
			fmt.Println("dcat-agent: shutting down")
			return nil
		case <-ticker.C:
			if err := agent.Tick(ctx); err != nil {
				return err
			}
			if err := agent.LastErr(); err != nil {
				fmt.Fprintln(os.Stderr, "dcat-agent: coordinator unreachable, continuing locally:", err)
			}
			if done++; intervals > 0 && done >= intervals {
				return nil
			}
		}
	}
}

// localSource adapts a cluster.Local to the httpstatus Source surface.
type localSource struct {
	l cluster.Local
}

func (s localSource) Snapshot() []core.Status { return s.l.Snapshot() }
func (s localSource) Ticks() int              { return s.l.Ticks() }
func (s localSource) Occupancy() (map[string]uint64, bool) {
	type occ interface {
		Occupancy() (map[string]uint64, bool)
	}
	if o, ok := s.l.(occ); ok {
		return o.Occupancy()
	}
	return nil, false
}
