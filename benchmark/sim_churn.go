package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/study"
)

// sim-churn: study.Run over many short, independently seeded two-socket
// scenarios with tenant churn, scheduled migrations and the placement
// engine, under each of the three allocation policies. studies/churn.json
// is the template for one study (three scenarios, one per policy); the
// benchmark replicates it so the file's scenario count follows
// --seconds. The churn block is the issue's; scenarios are 20 intervals
// long, not 400, because study.RunOptions.Sweep is the only seam
// study.Run offers — one scenario is the finest thing that can be timed
// from outside — and a p90 needs a hundred of them. Short scenarios also
// keep per-scenario construction and teardown (host.New,
// addr.NewSpace/Release, AddTarget/RemoveTarget, cache.FlushWays) a
// visible share.
//
//go:embed studies/churn.json
var churnTemplate []byte

// churnStudies is how many copies of the template study run at
// refSeconds (three scenarios each): 108 scenarios at 20 s, the fewest
// that leave ten samples beyond the p90.
const churnStudies = 18

// churnFile builds the study file for a run: the template's one study
// replicated n times under distinct names, so every copy expands to its
// own scenario indices and therefore its own seeds.
func churnFile(seed int64, n int) (*study.File, error) {
	f, err := study.Parse(churnTemplate)
	if err != nil {
		return nil, err
	}
	if len(f.Studies) != 1 {
		return nil, fmt.Errorf("churn template must hold exactly one study, has %d", len(f.Studies))
	}
	tmpl := f.Studies[0]
	f.Base.Seed = seed
	f.Studies = nil
	for i := 0; i < n; i++ {
		st := tmpl
		st.Name = fmt.Sprintf("%s-%03d", tmpl.Name, i)
		f.Studies = append(f.Studies, st)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

type simChurn struct {
	rc   *runCtx
	file *study.File
	res  *study.Result
	// fleetIPC is Σ VM IPC, mean over the scenarios (simulated).
	fleetIPC float64
}

func setupSimChurn(rc *runCtx) (instance, error) {
	n := rc.cfg.scaled(churnStudies)
	if rc.cfg.Small {
		n = 1
	}
	f, err := churnFile(rc.cfg.Seed, n)
	if err != nil {
		return nil, err
	}
	if rc.cfg.Small {
		return &simChurn{rc: rc, file: f}, nil
	}
	// Warm-up: one study's scenarios, untimed, so the heap already holds
	// a two-socket hierarchy's worth of pages when timing starts.
	warm, err := churnFile(rc.cfg.Seed, 1)
	if err != nil {
		return nil, err
	}
	if _, err := study.Run(warm, study.RunOptions{}); err != nil {
		return nil, err
	}
	return &simChurn{rc: rc, file: f}, nil
}

func (s *simChurn) close() {}

func (s *simChurn) run(out *outcome) error {
	tr := s.rc.tr
	kScenario := tr.key("study", "scenario")
	scenarios := s.file.Expand()
	lat := &dist{} // one scenario, ms
	var intervals int
	sweep := func(n int, fn func(i int) error) error {
		for i := 0; i < n; i++ {
			start := time.Now()
			tr.push(kScenario)
			err := fn(i)
			tr.pop()
			d := time.Since(start)
			out.Attempted++
			if err != nil {
				out.Failed++
				return err
			}
			lat.add(float64(d) / 1e6)
			intervals += scenarios[i].Intervals
		}
		return nil
	}
	start := time.Now()
	res, err := study.Run(s.file, study.RunOptions{Sweep: sweep})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	s.res = res
	if len(res.Scenarios) != len(scenarios) {
		out.problemf("study returned %d scenario results, file expands to %d", len(res.Scenarios), len(scenarios))
	}
	var ipc float64
	for _, r := range res.Scenarios {
		ipc += r.FleetIPC
		if r.GraceViolations > 0 {
			out.problemf("scenario %s/%s: %d grace violations", r.Scenario.Study, r.Scenario.ID, r.GraceViolations)
		}
	}
	// All three policies' scenarios in one rate and one distribution: a
	// policy that gets slower moves both.
	out.setHeadline(float64(intervals), elapsed.Seconds(), lat)
	s.fleetIPC = ipc / float64(len(res.Scenarios))

	var sb strings.Builder
	res.Render(&sb)
	sum := sha256.Sum256([]byte(sb.String()))
	out.Digest = hex.EncodeToString(sum[:])
	return nil
}

func (s *simChurn) layers(out *outcome) error {
	sc := s.rc.tr.stats()[spanKey{"study", "scenario"}]
	if sc == nil {
		return fmt.Errorf("traced run recorded no scenario spans")
	}
	out.setPctScaled("study.scenario_s_p50", &sc.durs, 0.5, 1e-9)
	var arrivals, departures, migrations, moves, grace int
	for _, r := range s.res.Scenarios {
		arrivals += r.Arrivals
		departures += r.Departures
		migrations += r.Migrations
		moves += r.Moves
		grace += r.GraceViolations
	}
	n := len(s.res.Scenarios)
	out.set("study.arrivals", float64(arrivals), n)
	out.set("study.departures", float64(departures), n)
	out.set("study.migrations", float64(migrations), n)
	out.set("study.moves", float64(moves), n)
	out.set("study.grace_violations", float64(grace), n)
	out.set("sim.fleet_ipc", s.fleetIPC, n)
	return nil
}
