package experiments

import (
	"fmt"
	"path/filepath"

	"repro/internal/study"
)

// studyID is the runner ID dcat-bench registers for -study.
const studyID = "study"

// StudyRunner returns a runner that executes a declarative study file
// (see internal/study): the sweep of fleet size × topology × workload
// mix × arrival pattern it declares, with churn and placement when
// enabled. Scenarios fan out over the experiment engine's shared -j
// worker pool via Options.sweep and results assemble in expansion
// order, so the rendered cross-study table is byte-identical for any
// -j — the same contract every registry experiment honours. When
// outDir is non-empty, per-study result directories are written there.
//
// The study file is self-contained (its base block carries cycles,
// seed, machine, and memory); only the parallelism budget comes from
// the engine, so -quick and -sockets do not change study results.
func StudyRunner(path, outDir string) Runner {
	return newRunner(studyID, "Scenario studies: "+filepath.Base(path),
		func(o Options) (*TableResult, error) { return runStudy(o, path, outDir) })
}

func runStudy(opts Options, path, outDir string) (*TableResult, error) {
	f, err := study.Load(path)
	if err != nil {
		return nil, err
	}
	res, err := study.Run(f, study.RunOptions{Sweep: opts.sweep, OutDir: outDir})
	if err != nil {
		return nil, err
	}
	var arrivals, departures, rejected, migrations, moves, graceViol int
	for _, s := range res.Scenarios {
		arrivals += s.Arrivals
		departures += s.Departures
		rejected += s.Rejected
		migrations += s.Migrations
		moves += s.Moves
		graceViol += s.GraceViolations
	}
	notes := []string{
		fmt.Sprintf("%d studies, %d scenarios from %s", len(f.Studies), len(res.Scenarios), filepath.Base(path)),
		fmt.Sprintf("churn: %d arrivals, %d departures, %d rejected, %d migrations, %d placement moves, %d grace violations",
			arrivals, departures, rejected, migrations, moves, graceViol),
	}
	if outDir != "" {
		notes = append(notes, fmt.Sprintf("result directories under %s", outDir))
	}
	return &TableResult{
		ID:    studyID,
		Title: "Cross-study comparison: " + f.Name,
		Tab:   res.Table(),
		Notes: notes,
	}, nil
}
