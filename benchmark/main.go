// Command benchmark is the repo benchmark: five named workloads over
// the simulator, the controller and the fleet plane, with end-to-end
// metrics, per-layer traced runs and noise-aware bounds. See README.md
// in this directory and BENCHMARK.json at the repo root.
//
//	go run -C benchmark .                         every workload x --repeats, table of medians and spreads
//	go run -C benchmark . --trace                 plus one traced run per workload: per-layer metrics, span files
//	go run -C benchmark . --check-repeat          two full sets; fail unless they agree within the bounds
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//	                                              one run in this process; last stdout line is the result JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// normalizeArgs lets --trace stand alone (human use) as well as take
// the driver's 0|1 value: a bare --trace becomes --trace=1.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--trace" || a == "-trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "--trace="+args[i+1])
				i++
			} else {
				out = append(out, "--trace=1")
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload    = fs.String("workload", "", "run only this workload, in this process, and print the result JSON as the last line")
		seed        = fs.Int64("seed", 1, "the only input to every generator")
		seconds     = fs.Float64("seconds", runSeconds, "run length the timed work is sized to")
		trace       = fs.Int("trace", 0, "1: traced run(s) — per-layer metrics and span files")
		repeats     = fs.Int("repeats", 3, "runs per workload, each in a fresh child process (all-workloads mode)")
		checkRepeat = fs.Bool("check-repeat", false, "run two full sets back to back and fail unless they agree within each metric's bound")
		outDir      = fs.String("out", defaultOutDir(), "directory for span files")
		scratch     = fs.String("scratch", defaultScratch(), "directory for per-run scratch data (recorder segments, resctrl mock trees, decision traces)")
		cpuProfile  = fs.String("cpuprofile", "", "write one CPU profile per workload into this directory")
		memProfile  = fs.String("memprofile", "", "write one allocation profile per workload into this directory")
		updateExp   = fs.Bool("update-expected", false, "rewrite expected.json from this run's digests (benchmark PRs only)")
		child       = fs.Bool("child", false, "with --workload: end with the whole outcome as one JSON line (what the all-workloads mode reads from its child processes)")
		benchJSON   = fs.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the workload and metric tables, and exit")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *benchJSON {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	cfg := runConfig{
		Workload:     *workload,
		Seed:         *seed,
		Seconds:      *seconds,
		Trace:        *trace != 0,
		OutDir:       *outDir,
		Scratch:      *scratch,
		SetupRepeats: setupRepeats,
		CPUProfile:   *cpuProfile,
		MemProfile:   *memProfile,
		SkipExpected: *updateExp,
	}
	if *workload != "" {
		return runSingle(cfg, *child)
	}
	return orchestrate(cfg, *repeats, *checkRepeat, *updateExp)
}

// driverResult is the one JSON object the driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSingle is driver mode: one workload, in this process. Everything
// measured is printed for people; the last line is the result JSON
// holding exactly the end-to-end metrics (untraced) or exactly the
// per-layer metrics (traced) — or, for a child of the all-workloads
// mode, the whole outcome.
func runSingle(cfg runConfig, child bool) int {
	fmt.Print(header(cfg))
	out, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !cfg.SkipExpected {
		checkExpected(cfg, out)
	}
	printOutcome(out)

	var result any = out
	if !child {
		res, err := driverLine(cfg, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		result = res
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	// A printed result is a completed run: the verdict is its `correct`
	// field. (The all-workloads mode is the one that exits non-zero on a
	// failed check.)
	return 0
}

func driverLine(cfg runConfig, out *outcome) (driverResult, error) {
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	res := driverResult{
		Correct:   len(out.Problems) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]driverMetric, len(want)),
	}
	for _, d := range want {
		m, ok := out.get(d.Name)
		if !ok {
			return res, fmt.Errorf("%s did not report %s", cfg.Workload, d.Name)
		}
		res.Metrics[d.Name] = driverMetric{Value: m.Value, Unit: d.Unit}
	}
	return res, nil
}

// printOutcome renders one run for people.
func printOutcome(out *outcome) {
	fmt.Printf("workload %s attempted=%d failed=%d\n", out.Workload, out.Attempted, out.Failed)
	fmt.Printf("digest %s\n", out.Digest)
	for _, p := range out.Problems {
		fmt.Printf("problem %s\n", p)
	}
	for _, m := range out.Metrics {
		note := ""
		if m.Thin {
			note = fmt.Sprintf(" thin(<%d samples beyond)", minBeyond)
		}
		fmt.Printf("metric %s %v %s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
}

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []benchmarkWhy    `json:"workloads"`
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkJSON generates BENCHMARK.json from the workload and metric
// tables, so the file at the repo root is never a second hand-kept
// copy: `go run -C benchmark . --benchmark-json > BENCHMARK.json`.
func benchmarkJSON() []byte {
	doc := benchmarkDoc{
		// --scratch keeps recorder segments and resctrl trees under
		// benchmark/out: the driver lets a benchmark write only inside its
		// checkout.
		Command:    []string{"go", "run", "-C", "benchmark", ".", "--scratch", "out"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, benchmarkWhy{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, benchmarkMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, benchmarkMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a table of strings and floats always marshals
	}
	return append(data, '\n')
}
