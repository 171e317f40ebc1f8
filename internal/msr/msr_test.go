package msr

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/perf"
)

// fakeDev is an in-memory MSR space per CPU.
type fakeDev struct {
	regs map[int]map[uint32]uint64
	fail bool
}

func newFakeDev(cpus ...int) *fakeDev {
	d := &fakeDev{regs: map[int]map[uint32]uint64{}}
	for _, c := range cpus {
		d.regs[c] = map[uint32]uint64{}
	}
	return d
}

func (d *fakeDev) Read(cpu int, reg uint32) (uint64, error) {
	if d.fail {
		return 0, fmt.Errorf("injected")
	}
	bank, ok := d.regs[cpu]
	if !ok {
		return 0, fmt.Errorf("no cpu %d", cpu)
	}
	return bank[reg], nil
}

func (d *fakeDev) Write(cpu int, reg uint32, val uint64) error {
	bank, ok := d.regs[cpu]
	if !ok {
		return fmt.Errorf("no cpu %d", cpu)
	}
	bank[reg] = val
	return nil
}

func TestOpenProgramsEventSelects(t *testing.T) {
	dev := newFakeDev(0, 1)
	// Counters that ran before Open: every one must start from zero, so
	// the first sample spans one period for all six events.
	for _, reg := range []uint32{regFixedCtr0, regFixedCtr1, regPMC0, regPMC0 + 3} {
		dev.regs[1][reg] = 1 << 40
	}
	if _, err := Open(dev, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	for _, reg := range []uint32{regFixedCtr0, regFixedCtr1, regPMC0, regPMC0 + 3} {
		if v := dev.regs[1][reg]; v != 0 {
			t.Errorf("counter %#x left at %d after Open, want 0", reg, v)
		}
	}
	// LLC misses (event 0x2E umask 0x41) must land in PMC0's selector
	// with USR|OS|EN set.
	sel := dev.regs[0][regPerfEvtSel0+uint32(pmcSlot[perf.LLCMisses])]
	if sel&0xFF != 0x2E {
		t.Errorf("event number %#x want 0x2E", sel&0xFF)
	}
	if (sel>>8)&0xFF != 0x41 {
		t.Errorf("umask %#x want 0x41", (sel>>8)&0xFF)
	}
	for _, bit := range []uint64{evtSelUSR, evtSelOS, evtSelEnable} {
		if sel&bit == 0 {
			t.Errorf("selector %#x missing bit %#x", sel, bit)
		}
	}
	if dev.regs[1][regFixedCtrCtrl] != 0x033 {
		t.Errorf("fixed counter ctrl %#x", dev.regs[1][regFixedCtrCtrl])
	}
	if dev.regs[1][regPerfGlobalCtrl] == 0 {
		t.Error("global enable not written")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, []int{0}); err == nil {
		t.Error("nil device should fail")
	}
	if _, err := Open(newFakeDev(0), nil); err == nil {
		t.Error("no cpus should fail")
	}
	if _, err := Open(newFakeDev(0), []int{5}); err == nil {
		t.Error("unknown cpu should surface the write failure")
	}
}

func TestReadCounterMapping(t *testing.T) {
	dev := newFakeDev(0)
	c, err := Open(dev, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	dev.regs[0][regFixedCtr0] = 111
	dev.regs[0][regFixedCtr1] = 222
	dev.regs[0][regPMC0+uint32(pmcSlot[perf.LLCMisses])] = 333
	dev.regs[0][regPMC0+uint32(pmcSlot[perf.L1Hits])] = 444

	if got := c.ReadCounter(0, perf.RetiredInstructions); got != 111 {
		t.Errorf("instructions=%d", got)
	}
	if got := c.ReadCounter(0, perf.UnhaltedCycles); got != 222 {
		t.Errorf("cycles=%d", got)
	}
	if got := c.ReadCounter(0, perf.LLCMisses); got != 333 {
		t.Errorf("llc misses=%d", got)
	}
	if got := c.ReadCounter(0, perf.L1Hits); got != 444 {
		t.Errorf("l1 hits=%d", got)
	}
	if got := c.ReadCounter(0, perf.Event(99)); got != 0 {
		t.Errorf("unknown event should read 0, got %d", got)
	}
}

func TestReadCounterErrorsAsZero(t *testing.T) {
	dev := newFakeDev(0)
	c, err := Open(dev, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	dev.fail = true
	if got := c.ReadCounter(0, perf.LLCMisses); got != 0 {
		t.Errorf("failed read should yield 0, got %d", got)
	}
}

func TestCountersSatisfyPerfReader(t *testing.T) {
	var _ perf.Reader = (*Counters)(nil)
	dev := newFakeDev(0)
	c, _ := Open(dev, []int{0})
	if got := c.CPUs(); len(got) != 1 || got[0] != 0 {
		t.Errorf("CPUs()=%v", got)
	}
}

// DevFS against a fake /dev/cpu tree of regular files: ReadAt/WriteAt
// at the register offset behave like the kernel driver.
func TestDevFS(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "3"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "3", "msr")
	// Sparse file large enough for the fixed counter offsets.
	if err := os.WriteFile(path, make([]byte, 0x400), 0o644); err != nil {
		t.Fatal(err)
	}
	dev := DevFS{Root: root}
	if err := dev.Write(3, regFixedCtr0, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	got, err := dev.Read(3, regFixedCtr0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xDEADBEEF {
		t.Errorf("round trip got %#x", got)
	}
	// Verify little-endian layout on disk.
	raw, _ := os.ReadFile(path)
	if binary.LittleEndian.Uint64(raw[regFixedCtr0:]) != 0xDEADBEEF {
		t.Error("value not stored little-endian at the register offset")
	}
	if _, err := dev.Read(9, regFixedCtr0); err == nil {
		t.Error("missing cpu device should fail")
	}
	if err := dev.Write(9, regFixedCtr0, 1); err == nil {
		t.Error("missing cpu device should fail writes")
	}
}

func TestDevFSDefaultRoot(t *testing.T) {
	d := DevFS{}
	if got := d.path(2); got != "/dev/cpu/2/msr" {
		t.Errorf("default path %q", got)
	}
}
