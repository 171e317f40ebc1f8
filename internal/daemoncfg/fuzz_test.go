package daemoncfg

import "testing"

// FuzzParse checks the config parser never panics and that accepted
// configurations are internally consistent.
func FuzzParse(f *testing.F) {
	f.Add([]byte(goodConfig))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"groups":[{"name":"a","cpus":"0","baseline_ways":1}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := Parse(raw)
		if err != nil {
			return
		}
		if len(cfg.Groups) == 0 || cfg.PeriodDuration <= 0 {
			t.Fatal("accepted config is inconsistent")
		}
		if _, err := cfg.ControllerConfig(); err != nil {
			t.Fatalf("accepted config has invalid thresholds: %v", err)
		}
		seen := map[int]bool{}
		for _, c := range cfg.Groups.AllCores() {
			if seen[c] {
				t.Fatal("accepted config has duplicate cores")
			}
			seen[c] = true
		}
	})
}
