package dcat

// The root package holds no code: only the repository-wide checks
// (the committed bench_results renders, DESIGN.md's package inventory),
// end-to-end tests of one simulated node (node_test.go) and the
// benchmark harness, one testing.B per table and figure of the
// paper's evaluation. The simulator's and the controller's own
// microbenchmarks live beside their code: BenchmarkHostInterval and
// BenchmarkNUMAInterval in internal/host, BenchmarkControllerTick in
// internal/core (the paper claims <1% CPU for the daemon).
//
// Each experiment benchmark regenerates its table/figure through
// internal/experiments and writes the rendered output to
// bench_results/<id>.txt, so a -bench=. run reproduces the full
// evaluation. Timings reported by these benchmarks are simulation
// cost, not the paper's metrics — the metrics are in the files.
//
// Benchmarks run at the reduced Quick scale so a full -bench=. sweep
// stays tractable on one core; set DCAT_BENCH_FULL=1 (or use
// cmd/dcat-bench, which defaults to full fidelity) for the
// full-fidelity numbers recorded in EXPERIMENTS.md.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func benchOptions(b *testing.B) experiments.Options {
	if os.Getenv("DCAT_BENCH_FULL") != "" {
		return experiments.Default()
	}
	return experiments.Quick()
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions(b)
	var out string
	for i := 0; i < b.N; i++ {
		out, err = r.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := os.MkdirAll("bench_results", 0o755); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join("bench_results", id+".txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", path)
}

// TestBenchResultsCurrent makes the byte-identical contract a machine
// check: the committed bench_results files are Quick-scale renders, so
// a change that moves any simulated statistic behind these two
// scenario-driven experiments (a learned performance table, a
// controller timeline) fails here instead of surfacing as a diff after
// the next -bench run.
func TestBenchResultsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"table1", "fig13"} {
		r, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(experiments.Quick())
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("bench_results", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from bench_results/%s.txt:\ngot:\n%s\nwant:\n%s", id, id, got, want)
		}
	}
}

// TestDesignInventoryCurrent keeps DESIGN.md §3 and the tree in step:
// every directory under internal/ and cmd/ is named in the package
// inventory, and every directory the inventory names still exists.
func TestDesignInventoryCurrent(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(design), "## 3. Package inventory")
	inventory, _, ok := strings.Cut(rest, "\n## ")
	if !ok {
		t.Fatal("DESIGN.md has no §3 package inventory")
	}
	roots := []string{"internal", "cmd", "examples"}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^ {4}([\w-]+)/`).FindAllStringSubmatch(inventory, -1) {
		name, found := m[1], false
		listed[name] = true
		for _, root := range roots {
			if fi, err := os.Stat(filepath.Join(root, name)); err == nil && fi.IsDir() {
				found = true
			}
		}
		if !found {
			t.Errorf("DESIGN.md §3 lists %s/, which is in none of %v", name, roots)
		}
	}
	for _, root := range roots[:2] {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !listed[e.Name()] {
				t.Errorf("%s/%s is missing from DESIGN.md §3", root, e.Name())
			}
		}
	}
}

// §2 motivation.

func BenchmarkFig01CacheInterference(b *testing.B) { runExperiment(b, "fig1") }
func BenchmarkFig02ConflictLatency(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig03SetConflictHistogram(b *testing.B) {
	runExperiment(b, "fig3")
}

// §3 design validation.

func BenchmarkFig05PhaseDetector(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkTable1PerformanceTable(b *testing.B) { runExperiment(b, "table1") }

// §5.1 microbenchmark results.

func BenchmarkFig08MissThreshold(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig09IPCThreshold(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig10DynamicAllocation(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11NormalizedLatency(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12TableReuse(b *testing.B)        { runExperiment(b, "fig12") }
func BenchmarkFig13Streaming(b *testing.B)         { runExperiment(b, "fig13") }
func BenchmarkFig14TwoReceivers(b *testing.B)      { runExperiment(b, "fig14") }
func BenchmarkFig15MixedTimeline(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16MixedLatency(b *testing.B)      { runExperiment(b, "fig16") }

// §5.2 benchmark/application results.

func BenchmarkFig17SPEC(b *testing.B)           { runExperiment(b, "fig17") }
func BenchmarkTable4Redis(b *testing.B)         { runExperiment(b, "table4") }
func BenchmarkTable5Postgres(b *testing.B)      { runExperiment(b, "table5") }
func BenchmarkTable6Elasticsearch(b *testing.B) { runExperiment(b, "table6") }

// Baseline comparison (§2.2 related work).

func BenchmarkComparisonUCP(b *testing.B)      { runExperiment(b, "comparison-ucp") }
func BenchmarkComparisonHeracles(b *testing.B) { runExperiment(b, "comparison-heracles") }
func BenchmarkPolicyComparison(b *testing.B)   { runExperiment(b, "policy-comparison") }

// Ablations (DESIGN.md §5).

func BenchmarkAblationPhaseThreshold(b *testing.B) { runExperiment(b, "ablation-phase") }
func BenchmarkAblationGrowthStep(b *testing.B)     { runExperiment(b, "ablation-step") }
func BenchmarkAblationStreamingMult(b *testing.B)  { runExperiment(b, "ablation-streaming") }
func BenchmarkAblationPolicy(b *testing.B)         { runExperiment(b, "ablation-policy") }
func BenchmarkAblationDetector(b *testing.B)       { runExperiment(b, "ablation-detector") }
func BenchmarkAblationReplacement(b *testing.B)    { runExperiment(b, "ablation-replacement") }

// NUMA topology (DESIGN.md §NUMA).

func BenchmarkNUMAPlacement(b *testing.B) { runExperiment(b, "numa-placement") }
