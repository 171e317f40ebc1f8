// Command dcat-coord is the dCat cluster coordinator: one pane of
// glass over a fleet of per-host dCat agents. Agents enroll over the
// versioned HTTP/JSON protocol, report per-workload statistics every
// controller period, and receive fleet-level allocation hints back.
// Those reports are also the liveness signal: an agent that sends
// nothing for -expiry is marked dead. With -placement the engine is
// evaluated on every accepted report; the per-tenant time series keeps
// 256 samples for each of at most 1024 (agent, workload) pairs.
//
//	dcat-coord -listen :9400 -expiry 10s
//
// Operators read:
//
//	GET /cluster             — every agent, liveness, workload categories
//	GET /cluster/metrics     — Prometheus: fleet, per-tenant and
//	                           coordinator families
//	GET /fleet/events        — flight-recorder query plane (-recorder-dir)
//	GET /fleet/explain?vm=X  — why did workload X change allocation?
//	GET /fleet/placement     — placement engine status (-placement)
//	GET /fleet/trace?id=T    — one decision's causality tree (-recorder-dir)
//	GET /fleet/metrics       — per-tenant time series (JSON)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemoncfg"
	"repro/internal/flightrec"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", ":9400", "address to serve the protocol and /cluster on")
		expiry      = flag.Duration("expiry", 10*time.Second, "mark an agent dead after this long without a report or other request")
		quorum      = flag.Int("streaming-quorum", 2, "agents that must see a workload Streaming before capping its replicas")
		recDir      = flag.String("recorder-dir", "", "fleet flight-recorder segment directory (empty = durable recording off)")
		segBytes    = flag.Int64("segment-bytes", 4<<20, "rotate a recorder segment at this size")
		segAge      = flag.Duration("segment-age", time.Hour, "rotate a recorder segment at this age")
		retain      = flag.Int("retain", 64, "recorder segments kept before the oldest are pruned")
		retainBytes = flag.Int64("retain-bytes", 0, "total recorder bytes kept before the oldest segments are pruned (0 = no byte budget)")

		placementOn   = flag.Bool("placement", false, "run the fleet placement engine: issue cross-socket move directives over /v1/placement")
		placeCooldown = flag.Int("placement-cooldown", 5, "evaluations a moved workload sits out before it may move again")
		placeVerify   = flag.Int("placement-verify", 5, "evaluations to wait for recorder evidence before rolling a move back")
	)
	ob := daemoncfg.ObsFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatExpiry: *expiry,
		StreamingQuorum: *quorum,
	})
	reg := telemetry.NewRegistry()
	coord.RegisterMetrics(reg)
	coord.RegisterSelfMetrics(reg)
	opts, sink, closeTrace, err := ob.Open(reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcat-coord:", err)
		os.Exit(1)
	}
	defer closeTrace()
	opts.Tenants = coord
	sinks := []obs.Sink{sink}

	if *recDir != "" {
		store, err := flightrec.Open(flightrec.Config{
			Dir:             *recDir,
			SegmentMaxBytes: *segBytes,
			SegmentMaxAge:   *segAge,
			MaxSegments:     *retain,
			RetainBytes:     *retainBytes,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcat-coord: opening flight recorder:", err)
			os.Exit(1)
		}
		defer store.Close()
		store.RegisterMetrics(reg)
		coord.SetRecorder(store)
		opts.Recorder = store
		// The coordinator's own decision events — placement pressure,
		// directives, settlements — land in the durable store next to
		// the agents' streams, so /fleet/trace can reconstruct a whole
		// causality chain from one log. The wall-clock epoch keeps this
		// incarnation's sequence space clear of recovered cursors.
		sinks = append(sinks, flightrec.NewSink(store, "coord", time.Now().UnixNano()))
		fmt.Printf("dcat-coord: flight recorder at %s (query at /fleet/events, causality at /fleet/trace)\n", *recDir)
	}
	coord.SetSink(obs.Multi(sinks...))
	if *placementOn {
		engine := placement.NewEngine(placement.Config{
			Cooldown:      *placeCooldown,
			VerifyTimeout: *placeVerify,
			Recorder:      coord.Recorder(),
			Trace:         obs.NewIDGen(0),
		})
		engine.SetSink(obs.Multi(sinks...))
		coord.SetPlacement(engine)
		opts.Placement = engine
		fmt.Println("dcat-coord: placement engine on (status at /fleet/placement)")
	}
	status := httpstatus.ClusterHandlerOpts(coord, opts)
	mux := http.NewServeMux()
	mux.Handle("/v1/", coord.Handler())
	mux.Handle("/cluster", status)
	mux.Handle("/cluster/", status)
	mux.Handle("/debug/", status)
	mux.Handle("/fleet/", status)

	srv := &http.Server{Addr: *listen, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("dcat-coord: serving on %s (cluster state at /cluster, expiry %s)\n", *listen, *expiry)

	select {
	case <-ctx.Done():
		fmt.Println("dcat-coord: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "dcat-coord:", err)
			os.Exit(1)
		}
	}
}
