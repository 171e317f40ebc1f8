package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expected.json holds the output digests of --seed 1 at the reference
// run length on the seed commit. A later PR that only changes speed must
// reproduce them; only a benchmark PR may regenerate the file
// (--update-expected).
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Digests map[string]string `json:"digests"`
}

func loadExpected() (expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// checkExpected compares a run's digest with expected.json when the run
// used the recorded seed and size; other seeds are verified across
// repeats only.
func checkExpected(cfg runConfig, out *outcome) {
	e, err := loadExpected()
	if err != nil {
		out.problemf("%v", err)
		return
	}
	checkAgainst(e, cfg, out)
}

func checkAgainst(e expectedFile, cfg runConfig, out *outcome) {
	if cfg.Small || cfg.Seed != e.Seed || cfg.Seconds != e.Seconds {
		return
	}
	if want := e.Digests[out.Workload]; want != "" && want != out.Digest {
		out.problemf("digest %s differs from expected.json %s: the program's outputs changed", out.Digest, want)
	}
}
