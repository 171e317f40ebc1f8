package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// simulate parses args as main does and runs them with every file
// argument inside dir, returning stdout with dir's path stripped so a
// run reads as if made from dir.
func simulate(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	fs := flag.NewFlagSet("dcat-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(&out, o)
	if dir == "" {
		return out.String(), err
	}
	return strings.ReplaceAll(out.String(), dir+string(filepath.Separator), ""), err
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestGoldens pins dcat-sim's output byte for byte: three intervals of
// the default scenario, a streaming target with its CSV timeline, a
// remote-memory target on a two-socket host, a topology spec, and a
// recorded target replayed from its trace file.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"mload_csv", []string{"-workload", "mload", "-ws", "60", "-csv", at("timeline.csv")}},
		{"sockets2_targetmem1", []string{"-sockets", "2", "-target-mem", "1"}},
		{"topology", []string{"-topology", "sockets=2,machine=xeon-d,penalty=150"}},
		{"record", []string{"-record", at("f")}},
		{"replay", []string{"-workload", "trace:" + at("f")}},
	} {
		got, err := simulate(t, dir, append([]string{"-intervals", "3"}, tc.args...)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if want := readGolden(t, tc.golden+".golden"); got != want {
			t.Errorf("%s drifted:\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
	csv, err := os.ReadFile(at("timeline.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "mload_csv.csv.golden"); string(csv) != want {
		t.Errorf("CSV timeline drifted:\ngot:\n%s\nwant:\n%s", csv, want)
	}
}

// TestTargetMemPlacesEveryTarget: -target-mem homes the memory of every
// synthetic target on the chosen socket, so a target running on
// socket 0 with its memory on socket 1 pays for remote accesses — and a
// recorded trace, which has no memory to place, refuses the flag.
func TestTargetMemPlacesEveryTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, wl := range []string{"mlr", "mload", "redis", "postgres", "elasticsearch", "spec:omnetpp"} {
		got, err := simulate(t, "", "-workload", wl, "-sockets", "2", "-target-mem", "1",
			"-neighbors", "0", "-intervals", "1")
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if strings.Contains(got, "socket 0: 0 remote accesses") {
			t.Errorf("%s: target memory stayed local to socket 0:\n%s", wl, got)
		}
	}
	if _, err := simulate(t, "", "-workload", "trace:unused", "-sockets", "2", "-target-mem", "1"); err == nil ||
		!strings.Contains(err.Error(), "-target-mem") {
		t.Errorf("trace target with -target-mem 1: err=%v, want a -target-mem rejection", err)
	}
}
