package daemoncfg

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

const goodConfig = `{
  "period": "500ms",
  "policy": "perf",
  "http": ":9090",
  "thresholds": {"llc_miss_rate": 0.05, "streaming_multiplier": 4},
  "groups": [
    {"name": "web", "cpus": "0-3", "baseline_ways": 4},
    {"name": "batch", "cpus": "4,6-7", "baseline_ways": 2}
  ]
}`

func TestParseGood(t *testing.T) {
	f, err := Parse([]byte(goodConfig))
	if err != nil {
		t.Fatal(err)
	}
	if f.ResctrlRoot == "" || f.MSRRoot == "" {
		t.Error("defaults not applied")
	}
	if f.PeriodDuration.Milliseconds() != 500 {
		t.Errorf("period %v", f.PeriodDuration)
	}
	if f.Policy != "max-performance" {
		t.Errorf("policy %q", f.Policy)
	}
	if len(f.Groups) != 2 {
		t.Fatalf("groups %d", len(f.Groups))
	}
	if got := f.Groups[1].Cores; len(got) != 3 || got[0] != 4 || got[2] != 7 {
		t.Errorf("batch cores %v", got)
	}
	cfg, err := f.ControllerConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != core.MaxPerformance || cfg.LLCMissRateThr != 0.05 || cfg.StreamingMult != 4 {
		t.Errorf("controller config %+v", cfg)
	}
	// Untouched thresholds keep paper defaults.
	if cfg.IPCImpThr != core.DefaultConfig().IPCImpThr {
		t.Error("unset threshold should keep the default")
	}
	targets := f.Groups.Targets()
	if len(targets) != 2 || targets[0].BaselineWays != 4 {
		t.Errorf("targets %+v", targets)
	}
	if cores := f.Groups.AllCores(); len(cores) != 7 {
		t.Errorf("AllCores %v", cores)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{`,
		"unknown field": `{"groups":[{"name":"a","cpus":"0","baseline_ways":1}],"bogus":1}`,
		"no groups":     `{"groups":[]}`,
		"unnamed group": `{"groups":[{"cpus":"0","baseline_ways":1}]}`,
		"dup group":     `{"groups":[{"name":"a","cpus":"0","baseline_ways":1},{"name":"a","cpus":"1","baseline_ways":1}]}`,
		"dup cpu":       `{"groups":[{"name":"a","cpus":"0-2","baseline_ways":1},{"name":"b","cpus":"2","baseline_ways":1}]}`,
		"bad cpus":      `{"groups":[{"name":"a","cpus":"x","baseline_ways":1}]}`,
		"no cpus":       `{"groups":[{"name":"a","cpus":"","baseline_ways":1}]}`,
		"zero baseline": `{"groups":[{"name":"a","cpus":"0","baseline_ways":0}]}`,
		"bad period":    `{"period":"soon","groups":[{"name":"a","cpus":"0","baseline_ways":1}]}`,
		"bad policy":    `{"policy":"chaotic","groups":[{"name":"a","cpus":"0","baseline_ways":1}]}`,
		"bad threshold": `{"thresholds":{"llc_miss_rate":2},"groups":[{"name":"a","cpus":"0","baseline_ways":1}]}`,
	}
	for name, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: should be rejected", name)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dcatd.json")
	if err := os.WriteFile(path, []byte(goodConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

// TestGroupsFlag covers the repeated -group name=cpus@baseline flag
// both daemons register.
func TestGroupsFlag(t *testing.T) {
	var gs Groups
	for _, v := range []string{"web=0-3@4", "batch=4,6@2"} {
		if err := gs.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	targets := gs.Targets()
	if len(targets) != 2 || targets[0].Name != "web" || targets[0].BaselineWays != 4 ||
		targets[1].Name != "batch" || len(targets[1].Cores) != 2 || targets[1].Cores[1] != 6 {
		t.Errorf("targets %+v", targets)
	}
	if cores := gs.AllCores(); len(cores) != 6 {
		t.Errorf("AllCores %v", cores)
	}
	for _, bad := range []string{"web", "web=0-3", "web=@2", "web=x@2", "web=0-3@0", "web=0-3@two"} {
		if err := gs.Set(bad); err == nil {
			t.Errorf("Set(%q) should be rejected", bad)
		}
	}
	if len(gs) != 2 {
		t.Errorf("rejected flags were appended: %d groups", len(gs))
	}
}
