package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// fleet-ingest: the write path. Two closed-loop clients play 32 agents
// (16 each); a round is one Report (with EventSummary) plus one upload
// of 32 seeded events for one agent. Placement is off.
const (
	// ingestRounds is rounds per agent at refSeconds.
	ingestRounds = 340
	// ingestWarmRounds is untimed rounds per agent during set-up.
	ingestWarmRounds = 8
)

type fleetIngest struct {
	rig         *fleetRig
	warmReports int
	elapsed     time.Duration
	// Client-observed latencies of the timed region, ms.
	reports, uploads *dist
}

func setupFleetIngest(rc *runCtx) (instance, error) {
	opt := fleetOptions{agents: fleetAgents}
	if rc.cfg.Small {
		opt.agents = 4
	}
	rig, err := newFleetRig(rc, opt)
	if err != nil {
		return nil, err
	}
	// Warm-up: a few rounds per agent open both connections, create the
	// first segment and fill the tenant rings' first slots.
	warm := ingestWarmRounds
	if rc.cfg.Small {
		warm = 1
	}
	ctx := context.Background()
	for round := 0; round < warm; round++ {
		for i, a := range rig.agents {
			c := rig.clients[i%2]
			if _, err := a.report(ctx, c); err != nil {
				rig.close()
				return nil, err
			}
			if _, err := a.upload(ctx, c); err != nil {
				rig.close()
				return nil, err
			}
			a.tick++
		}
	}
	return &fleetIngest{rig: rig, warmReports: warm * len(rig.agents)}, nil
}

func (f *fleetIngest) close() { f.rig.close() }

// ingestLane is one client goroutine's results.
type ingestLane struct {
	reports, uploads []float64 // client-observed latencies, ms
	attempted        int
	failed           int
	problems         []string
}

func (f *fleetIngest) run(out *outcome) error {
	rounds := f.rig.rc.cfg.scaled(ingestRounds)
	tr := f.rig.rc.tr
	kReport, kEvents := tr.key("loadgen", "report"), tr.key("loadgen", "events")
	lanes := make([]ingestLane, len(f.rig.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for lane := range lanes {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			l := &lanes[lane]
			c := f.rig.clients[lane]
			ctx := context.Background()
			for round := 0; round < rounds; round++ {
				for i := lane; i < len(f.rig.agents); i += len(lanes) {
					a := f.rig.agents[i]
					id := tr.begin(0, kReport)
					d, err := a.report(withSpan(ctx, id), c)
					tr.end(id)
					l.attempted++
					if err != nil {
						l.failed++
						l.problems = append(l.problems, fmt.Sprintf("%s report: %v", a.name, err))
					} else {
						l.reports = append(l.reports, float64(d)/1e6)
					}
					id = tr.begin(0, kEvents)
					d, err = a.upload(withSpan(ctx, id), c)
					tr.end(id)
					l.attempted++
					if err != nil {
						l.failed++
						l.problems = append(l.problems, fmt.Sprintf("%s upload: %v", a.name, err))
					} else {
						l.uploads = append(l.uploads, float64(d)/1e6)
					}
					a.tick++
				}
			}
		}(lane)
	}
	wg.Wait()
	f.elapsed = time.Since(start)

	var reports, uploads dist
	for i := range lanes {
		l := &lanes[i]
		out.Attempted += l.attempted
		out.Failed += l.failed
		if len(l.problems) > 5 {
			l.problems = l.problems[:5]
		}
		out.Problems = append(out.Problems, l.problems...)
		reports.vals = append(reports.vals, l.reports...)
		uploads.vals = append(uploads.vals, l.uploads...)
	}
	// Throughput is the events both lanes got appended, over the wall
	// time they ran side by side: the uploads' cost is in it. The headline
	// latency is the other half of a round, the report — decode, registry
	// lock, tenant rings; the upload's is a per-layer line.
	out.setHeadline(float64(uploads.n()*fleetBatch), f.elapsed.Seconds(), &reports)
	f.reports, f.uploads = &reports, &uploads
	f.rig.verifyStore(out, 0)
	wantReports := f.warmReports + rounds*len(f.rig.agents)
	if got, err := f.rig.clusterReports(); err != nil {
		out.problemf("/cluster: %v", err)
	} else if got != wantReports {
		out.problemf("/cluster counts %d reports, generator sent %d", got, wantReports)
	}
	hsh := f.rig.payload
	fmt.Fprintf(hsh, "reports=%d records=%d\n", wantReports, f.rig.store.Stats().Records)
	out.Digest = hex.EncodeToString(hsh.Sum(nil))
	return nil
}

func (f *fleetIngest) layers(out *outcome) error {
	out.setPct("loadgen.report_ms_p50", f.reports, 0.5)
	out.setPct("loadgen.report_ms_p90", f.reports, 0.9)
	out.setPct("loadgen.events_ms_p50", f.uploads, 0.5)
	out.setPct("loadgen.events_ms_p90", f.uploads, 0.9)
	return f.rig.fleetLayers(out, f.elapsed)
}
