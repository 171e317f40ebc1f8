// Command dcatd is the dCat daemon, one per host: every period it
// samples per-core performance counters, runs the controller's five
// steps, and applies the resulting cache partitioning through the
// resctrl filesystem.
//
// Hardware mode (Linux with resctrl mounted and the msr module loaded;
// requires root), from flags or from the JSON file that says the same:
//
//	dcatd -group web=0-3@4 -group batch=4-7@2 -period 1s
//	dcatd -config dcatd.json
//
// Demo mode runs the very same loop over a simulated host (MLR + MLOAD
// + lookbusy tenants) instead of hardware:
//
//	dcatd -demo -period 200ms -intervals 25
//
// With -coord the daemon is also a member of a dCat cluster: it
// enrolls, reports per-workload statistics every period, streams its
// decision events to the fleet flight recorder and applies coordinator
// allocation hints. The coordinator is strictly optional at runtime:
// when it is down or unreachable the local loop runs on unchanged and
// re-enrolls when the coordinator returns.
//
//	dcatd -coord http://coord:9400 -name host-a -demo
//	dcatd -coord http://coord:9400 -name host-b \
//	    -group web=0-3@4 -group batch=4-7@2 -period 1s
//
// With -demo -sockets N the daemon simulates a NUMA host and executes
// coordinator placement directives (live cross-socket migrations).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemoncfg"
	"repro/internal/host"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// options is everything the command line selects: the File (from flags
// or -config), the decision-trace destinations, the demo switches and
// the cluster membership, which has no place in the file.
type options struct {
	file *daemoncfg.File
	obs  daemoncfg.Obs

	demo      bool
	sockets   int
	intervals int

	name      string
	coord     string
	timeout   time.Duration
	retries   int
	streamBuf int
}

// parseFlags declares every dcatd flag on fs, parses args and resolves
// the File from the flags or from -config.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	file := daemoncfg.FileFlags(fs)
	ob := daemoncfg.ObsFlags(fs)
	fs.BoolVar(&o.demo, "demo", false, "run a simulated host instead of hardware")
	fs.IntVar(&o.sockets, "sockets", 0, "demo NUMA sockets (0 = single-socket demo); >1 enables placement directives")
	fs.IntVar(&o.intervals, "intervals", 0, "stop after this many periods (0 = until interrupted)")
	fs.StringVar(&o.name, "name", defaultName(), "host name, unique per coordinator")
	fs.StringVar(&o.coord, "coord", "", "coordinator base URL, e.g. http://coord:9400 (empty = standalone)")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Second, "per-request coordinator timeout")
	fs.IntVar(&o.retries, "retries", 3, "coordinator request retries (exponential backoff with jitter)")
	fs.IntVar(&o.streamBuf, "stream-buffer", 4096, "decision events buffered for upload to the fleet flight recorder (drop-oldest when full)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.obs = *ob
	var err error
	o.file, err = file()
	return o, err
}

func main() {
	// SIGINT/SIGTERM cancel the context; the loop winds down at the next
	// tick and shuts its HTTP server down gracefully instead of dying
	// mid-tick.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(ctx, o)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dcatd:", err)
		os.Exit(1)
	}
}

func defaultName() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "dcatd"
}

// node is the host the loop drives: the controller set and, in -demo,
// the simulated host that has to run an interval before each tick. It
// is the agent's cluster.Local, the status server's httpstatus.Source
// and, on a multi-socket demo, the cluster.Mover that turns coordinator
// placement directives into live migrations.
type node struct {
	*core.MultiController
	h *host.Host // nil on hardware
}

func (n node) Tick() error {
	if n.h != nil {
		n.h.RunInterval()
	}
	return n.MultiController.Tick()
}

// Occupancy reports the hardware loop's CMT readings; the simulated
// host exports none.
func (n node) Occupancy() (map[string]uint64, bool) {
	if n.h != nil {
		return nil, false
	}
	return n.Controller(0).Occupancy()
}

func (n node) MigrateVM(name string, toSocket int) error {
	return n.h.MigrateManaged(n.MultiController, name, toSocket)
}

// openDemo builds the simulated host: MLR + MLOAD + lookbusy tenants on
// socket 0. With sockets > 1 it becomes a NUMA host: every tenant
// starts crowded onto socket 0 while the other sockets idle with one
// lookbusy each — the imbalanced layout a coordinator placement engine
// exists to fix. The NUMA demo trades the single 8 MB MLR for three
// 16 MB ones (the placement experiment's tenancy): together they want
// more ways than one socket has, so the pool genuinely exhausts and a
// coordinator running -placement has a starved Receiver to move.
func openDemo(cfg core.Config, sockets int) (node, error) {
	hc := host.DefaultConfig()
	hc.Sockets = sockets
	h, err := host.New(hc)
	if err != nil {
		return node{}, err
	}
	type tenant struct {
		name string
		w    workload.Generator
	}
	var vms []tenant
	if sockets > 1 {
		for i, seed := range []int64{1, 2, 3} {
			m, err := workload.NewMLR(16<<20, addr.PageSize4K, h.Allocator(), seed)
			if err != nil {
				return node{}, err
			}
			vms = append(vms, tenant{fmt.Sprintf("mlr-%c", 'a'+i), m})
		}
	} else {
		mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 1)
		if err != nil {
			return node{}, err
		}
		vms = append(vms, tenant{"mlr", mlr})
	}
	mload, err := workload.NewMLOAD(60<<20, addr.PageSize4K, h.Allocator())
	if err != nil {
		return node{}, err
	}
	lb, err := workload.NewLookbusy(h.Allocator())
	if err != nil {
		return node{}, err
	}
	vms = append(vms, tenant{"mload", mload}, tenant{"lookbusy", lb})
	for _, vm := range vms {
		if _, err := h.AddVM(vm.name, 2, vm.w); err != nil {
			return node{}, err
		}
	}
	for s := 1; s < sockets; s++ {
		idle, err := workload.NewLookbusy(h.AllocatorOn(s))
		if err != nil {
			return node{}, err
		}
		if _, err := h.AddVMOn(s, fmt.Sprintf("idle-%d", s), 2, idle); err != nil {
			return node{}, err
		}
	}
	baselines := make(map[string]int)
	for _, vm := range h.VMs() {
		baselines[vm.Name] = 3
	}
	ctl, err := h.Controllers(cfg, baselines)
	if err != nil {
		return node{}, err
	}
	return node{MultiController: ctl, h: h}, nil
}

// open builds the host the options select.
func open(o options) (node, error) {
	if o.demo {
		cfg, err := o.file.ControllerConfig()
		if err != nil {
			return node{}, err
		}
		return openDemo(cfg, o.sockets)
	}
	if len(o.file.Groups) == 0 {
		return node{}, fmt.Errorf("no -group flags; nothing to manage (did you mean -demo?)")
	}
	ctl, err := o.file.OpenHardware()
	return node{MultiController: ctl}, err
}

// run is the daemon: it opens the host, wraps its loop in a cluster
// agent (standalone without -coord), serves local status, and ticks
// every period until the context is canceled or the interval budget is
// spent. Decision events fan out to the in-memory journal, the
// optional trace file and — with a coordinator — the agent's tally, so
// the coordinator sees fleet-wide transition rates, and the streamer
// that uploads every event to the fleet flight recorder.
func run(ctx context.Context, o options) error {
	// The registry is shared with the cluster client's RPC
	// instrumentation.
	reg := telemetry.NewRegistry()
	var client *cluster.Client
	var streamer *cluster.Streamer
	if o.coord != "" {
		var err error
		client, err = cluster.NewClient(cluster.ClientConfig{
			BaseURL:    o.coord,
			Timeout:    o.timeout,
			MaxRetries: o.retries,
			Metrics:    cluster.NewRPCMetrics(reg),
		})
		if err != nil {
			return err
		}
		streamer, err = cluster.NewStreamer(cluster.StreamerConfig{
			Client:     client,
			Epoch:      time.Now().UnixNano(),
			BufferSize: o.streamBuf,
			Metrics:    cluster.NewStreamerMetrics(reg),
		})
		if err != nil {
			return err
		}
	}
	n, err := open(o)
	if err != nil {
		return err
	}
	acfg := cluster.AgentConfig{
		Name:       o.name,
		StatusAddr: o.file.HTTP,
		Client:     client,
		Streamer:   streamer,
	}
	if o.demo && o.sockets > 1 {
		acfg.Mover = n
	}
	agent, err := cluster.NewAgent(acfg, n)
	if err != nil {
		return err
	}
	opts, chain, closeTrace, err := o.obs.Open(reg)
	if err != nil {
		return err
	}
	defer closeTrace()
	if client != nil {
		chain = obs.Multi(chain, agent.EventSink(), streamer)
	}
	n.SetSink(chain)
	n.RegisterMetrics(reg)
	// The agent's own events (placement executions) take the same path
	// as the controller's, so they reach the fleet recorder too.
	agent.SetSink(chain)
	// Scrapes and the per-tick log line read the host under the agent's
	// lock, the one its ticks and migrations hold.
	locked := httpstatus.Locked{Src: n, Do: agent.Do}
	if addr := o.file.HTTP; addr != "" {
		srv := httpstatus.ServeOpts(addr, locked, opts)
		defer func() {
			// Graceful shutdown: let in-flight scrapes finish.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
		fmt.Printf("dcatd: status on http://%s/status\n", addr)
	}
	period := o.file.PeriodDuration
	if client != nil {
		fmt.Printf("dcatd: %q reporting to the coordinator every %s\n", o.name, period)
	} else {
		fmt.Printf("dcatd: %q running standalone every %s\n", o.name, period)
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for done := 0; o.intervals == 0 || done < o.intervals; done++ {
		select {
		case <-ctx.Done():
			fmt.Println("dcatd: shutting down")
			return nil
		case <-ticker.C:
		}
		if err := agent.Tick(ctx); err != nil {
			return err
		}
		if err := agent.LastErr(); err != nil {
			fmt.Fprintln(os.Stderr, "dcatd: coordinator unreachable, continuing locally:", err)
		}
		logSnapshot(locked.Snapshot())
	}
	return nil
}

func logSnapshot(snap []core.Status) {
	parts := make([]string, 0, len(snap))
	for _, st := range snap {
		parts = append(parts, fmt.Sprintf("%s=%d(%s)", st.Name, st.Ways, st.State))
	}
	fmt.Printf("%s  %s\n", time.Now().Format("15:04:05"), strings.Join(parts, " "))
}
