package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStudyTableParallelismInvariant is the study determinism guard:
// the same study file and seed must render a byte-identical
// cross-study table whether scenarios run serially or fan out over
// eight workers — the property that lets CI publish the table
// regardless of the runner's -j.
func TestStudyTableParallelismInvariant(t *testing.T) {
	const file = `{"name":"par",
		"base":{"cycles":400000,"intervals":4,"mem_mb_per_socket":256},
		"studies":[
			{"name":"s","fleet":[1,2],"sockets":[1],"mixes":["mlr"],"arrivals":["steady","bursty"]},
			{"name":"c","fleet":[2],"sockets":[2],"mixes":["mixed"],"arrivals":["poisson"],
				"churn":{"arrivals_every":2,"lifetime":3,"max_live":2}}]}`
	// The study runner reads its file from disk, like dcat-bench -study.
	path := filepath.Join(t.TempDir(), "par.json")
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	runner := StudyRunner(path, "")
	render := func(jobs int) string {
		res := RunAll(context.Background(), []Runner{runner}, Quick(), EngineConfig{Jobs: jobs})[0]
		if res.Err != nil {
			t.Fatalf("jobs=%d: %v", jobs, res.Err)
		}
		return res.Output
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("cross-study table differs between -j 1 and -j 8:\n--- j=1 ---\n%s--- j=8 ---\n%s", serial, parallel)
	}
	// Sanity: the table actually contains every scenario row.
	for _, id := range []string{"f1-s1-mlr-steady", "f2-s1-mlr-bursty", "f2-s2-mixed-poisson"} {
		if !strings.Contains(serial, id) {
			t.Errorf("table missing scenario %s:\n%s", id, serial)
		}
	}
}
