package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// refSeconds is the run length the fixed work sizes were calibrated
// for on the seed commit; --seconds scales the timed work linearly
// from there (fleet-mixed runs for exactly --seconds).
const refSeconds = 10

// runSeconds is the default --seconds and BENCHMARK.json's run_seconds.
// Slow spells of this shared box last around half a minute. At 20 s such
// a spell covers one or two runs in a row of ten, which the quartiles
// the driver judges by leave out; at 10 s it covered three or four.
const runSeconds = 20

// setupRepeats is how many times a driver or child run sets its rig up;
// setup_s is the median and the last rig is the one measured. The
// driver's rule: "For setup_s, set up several times in a run and report
// the median".
const setupRepeats = 3

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// OutDir receives span files.
	OutDir string
	// Scratch holds the per-run scratch directory: recorder segments,
	// resctrl mock trees, decision traces. See defaultScratch.
	Scratch string
	// SetupRepeats is how many times set-up runs (setupRepeats; 1 in
	// tests).
	SetupRepeats int
	// Small shrinks the fixed set-up sizes (fleet size, pre-load, cycles
	// per interval) as well, so the tests can run every workload end to
	// end in a fraction of a second. It is not a flag.
	Small bool
	// Untimed wrappers: tests install the timing wrappers without a
	// traced run's extra measurements to prove they change nothing.
	WrapOnly bool

	CPUProfile string
	MemProfile string
	// SkipExpected suppresses the expected.json comparison while the file
	// is being regenerated (--update-expected).
	SkipExpected bool
}

// scaled sizes a fixed amount of timed work to --seconds.
func (c runConfig) scaled(n int) int {
	v := int(float64(n)*c.Seconds/refSeconds + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// defaultOutDir is benchmark/out under the checkout, whether the
// program was started from the checkout root or (as `go run -C
// benchmark .` does) from the benchmark directory itself.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// defaultScratch puts scratch data on tmpfs, so the benchmark measures
// the program and not the disk: /dev/shm when present, else $TMPDIR.
// The driver's command passes --scratch to keep it inside the checkout
// ("reads and writes only inside its checkout"); the header says which
// filesystem a run used.
func defaultScratch() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// scratchDir creates a fresh per-run directory under Scratch.
func (c runConfig) scratchDir() (string, error) {
	if err := os.MkdirAll(c.Scratch, 0o755); err != nil {
		return "", fmt.Errorf("creating scratch root: %w", err)
	}
	dir, err := os.MkdirTemp(c.Scratch, "dcat-benchmark-"+c.Workload+"-")
	if err != nil {
		return "", fmt.Errorf("creating scratch dir: %w", err)
	}
	return dir, nil
}

// fsKind names the filesystem a directory sits on (from
// /proc/self/mountinfo; "unknown" elsewhere), so the header can say
// whether recorder fsyncs hit a disk or tmpfs.
func fsKind(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// 36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw
		left, right, ok := strings.Cut(sc.Text(), " - ")
		if !ok {
			continue
		}
		lf, rf := strings.Fields(left), strings.Fields(right)
		if len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, rf[0]
		}
	}
	return kind
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// commit names the checkout's commit when it is a git repository (the
// driver's checkout is not; "unknown" there).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// header states the environment rules every number below was taken
// under.
func header(c runConfig) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# dcat benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(&sb, "# seed=%d seconds=%g (timed work sized to take that long on the seed commit) scratch=%s (%s)\n",
		c.Seed, c.Seconds, c.Scratch, fsKind(c.Scratch))
	sb.WriteString("# rules: one generator process per run, fresh process per repeat, at most 2 client connections,\n")
	sb.WriteString("#        warm-up inside setup_s, end-to-end numbers from untraced runs only, nothing filtered out of them\n")
	return sb.String()
}
