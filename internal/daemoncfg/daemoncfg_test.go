package daemoncfg

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/resctrl"
	"repro/internal/telemetry"
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

// TestGroupsFlag covers the repeated -group name=cpus@baseline flag:
// each occurrence gets the configuration file's whole-set validation.
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
	for _, bad := range []string{
		"web", "web=0-3", "web=@2", "web=x@2", "web=0-3@0", "web=0-3@two", "=8@1",
		"web=8-9@2",   // duplicate name
		"cache=3-8@2", // cpu 3 is web's, cpu 4 and 6 batch's
	} {
		if err := gs.Set(bad); err == nil {
			t.Errorf("Set(%q) should be rejected", bad)
		}
	}
	if len(gs) != 2 {
		t.Errorf("rejected flags were appended: %d groups", len(gs))
	}
}

// parseArgs resolves a File from command-line arguments the way dcatd
// does.
func parseArgs(args ...string) (*File, error) {
	fs := flag.NewFlagSet("dcatd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	file := FileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return file()
}

// TestFlagsMatchFile: a flag set and the JSON file that says the same
// yield equal Files and equal controller configurations — one struct,
// one validation, one place where -policy / -alloc-policy take effect.
func TestFlagsMatchFile(t *testing.T) {
	cases := []struct {
		name string
		args []string
		json string
	}{
		{"defaults",
			[]string{"-group", "web=0-3@4"},
			`{"groups":[{"name":"web","cpus":"0-3","baseline_ways":4}]}`},
		{"every field",
			[]string{"-resctrl", "/r", "-msr", "/m", "-period", "500ms", "-policy", "perf",
				"-alloc-policy", "lfoc", "-http", ":9090", "-group", "web=0-3@4", "-group", "batch=4,6-7@2"},
			`{"resctrl_root":"/r","msr_root":"/m","period":"0.5s","policy":"max-performance",
			  "alloc_policy":"lfoc","http":":9090","groups":[
			  {"name":"web","cpus":"0-3","baseline_ways":4},{"name":"batch","cpus":"4,6-7","baseline_ways":2}]}`},
	}
	for _, tc := range cases {
		fromFlags, err := parseArgs(tc.args...)
		if err != nil {
			t.Fatalf("%s: flags: %v", tc.name, err)
		}
		conf := filepath.Join(t.TempDir(), "dcatd.json")
		if err := os.WriteFile(conf, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, err := parseArgs("-config", conf)
		if err != nil {
			t.Fatalf("%s: file: %v", tc.name, err)
		}
		if !reflect.DeepEqual(fromFlags, fromFile) {
			t.Errorf("%s: Files differ:\nflags %+v\nfile  %+v", tc.name, fromFlags, fromFile)
		}
		a, errA := fromFlags.ControllerConfig()
		b, errB := fromFile.ControllerConfig()
		if errA != nil || errB != nil {
			t.Fatalf("%s: ControllerConfig: %v / %v", tc.name, errA, errB)
		}
		// Factories are not comparable; the engines they build are.
		engine := func(c core.Config) string {
			if c.NewPolicy == nil {
				return ""
			}
			return c.NewPolicy().Name()
		}
		if ea, eb := engine(a), engine(b); ea != eb || ea != fromFlags.AllocPolicy {
			t.Errorf("%s: engines %q / %q, want %q", tc.name, ea, eb, fromFlags.AllocPolicy)
		}
		a.NewPolicy, b.NewPolicy = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: controller configs differ:\nflags %+v\nfile  %+v", tc.name, a, b)
		}
	}
	for _, bad := range [][]string{
		{"-policy", "chaotic"}, {"-alloc-policy", "nope"}, {"-period", "0s"}, {"-period", "-1s"},
	} {
		if _, err := parseArgs(bad...); err == nil {
			t.Errorf("%v should be rejected", bad)
		}
	}
}

// TestOpenHardware opens the production loop on a mock resctrl tree and
// a fake /dev/cpu: a controller of one loop that programs the tree and
// exports unlabelled metrics.
func TestOpenHardware(t *testing.T) {
	dir := t.TempDir()
	tree, dev := filepath.Join(dir, "resctrl"), filepath.Join(dir, "cpu")
	if err := resctrl.CreateMockTree(tree, 20, 16, 8); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 8; cpu++ {
		d := filepath.Join(dev, fmt.Sprint(cpu))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "msr"), make([]byte, 0x400), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := parseArgs("-resctrl", tree, "-msr", dev, "-group", "web=0-3@4", "-group", "batch=4-7@2")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := f.OpenHardware()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range ctl.Snapshot() {
		if st.Socket != 0 {
			t.Fatalf("%s on socket %d, want one loop on socket 0", st.Name, st.Socket)
		}
	}
	if ctl.Ways("web") != 4 || ctl.Ways("batch") != 2 || ctl.TotalWays() != 20 {
		t.Errorf("ways web=%d batch=%d of %d", ctl.Ways("web"), ctl.Ways("batch"), ctl.TotalWays())
	}
	if err := ctl.Tick(); err != nil {
		t.Fatal(err)
	}
	for cos, bytes := range map[int]uint64{1: 4 << 20, 2: 1 << 20} {
		if err := resctrl.WriteMockOccupancy(tree, cos, bytes); err != nil {
			t.Fatal(err)
		}
	}
	if occ, ok := ctl.Occupancy(); !ok || occ["web"] != 4<<20 || occ["batch"] != 1<<20 {
		t.Errorf("occupancy %v %t", occ, ok)
	}
	reg := telemetry.NewRegistry()
	ctl.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 || strings.Contains(sb.String(), "socket=") {
		t.Errorf("a single hardware loop must export unlabelled metrics:\n%s", sb.String())
	}
}
