// Package msr programs and reads Intel performance-monitoring counters
// through the /dev/cpu/<n>/msr character devices — the same interface
// the paper's prototype used ("We use a Linux kernel module named msr
// to read a series of performance events from processor counters",
// §4).
//
// Event selection follows the architectural PMU (Intel SDM Vol. 3,
// ch. 18): programmable events go into IA32_PERFEVTSELx with their
// event number and umask from the paper's Table 2; retired instructions
// and unhalted cycles come from fixed counters 0 and 1, whose MSR
// indices (0x309, 0x30A) are exactly the "event numbers" Table 2
// lists for them.
//
// Reading MSRs needs root and the msr kernel module; tests use an
// in-memory device tree.
package msr

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/perf"
)

// Architectural PMU register addresses (Intel SDM Vol. 4).
const (
	regPerfEvtSel0    = 0x186 // IA32_PERFEVTSEL0..3
	regPMC0           = 0x0C1 // IA32_PMC0..3
	regFixedCtr0      = 0x309 // IA32_FIXED_CTR0: INST_RETIRED.ANY
	regFixedCtr1      = 0x30A // IA32_FIXED_CTR1: CPU_CLK_UNHALTED.THREAD
	regFixedCtrCtrl   = 0x38D // IA32_FIXED_CTR_CTRL
	regPerfGlobalCtrl = 0x38F // IA32_PERF_GLOBAL_CTRL
)

// PERFEVTSEL bit fields.
const (
	evtSelUSR    = 1 << 16 // count user mode
	evtSelOS     = 1 << 17 // count kernel mode
	evtSelEnable = 1 << 22
)

// Device reads and writes one CPU's model-specific registers.
type Device interface {
	Read(cpu int, reg uint32) (uint64, error)
	Write(cpu int, reg uint32, val uint64) error
}

// DevFS is the production Device backed by /dev/cpu/<n>/msr.
type DevFS struct {
	// Root is the device root, normally "/dev/cpu". Tests may point it
	// at a directory of sparse files.
	Root string
}

func (d DevFS) path(cpu int) string {
	root := d.Root
	if root == "" {
		root = "/dev/cpu"
	}
	return filepath.Join(root, fmt.Sprintf("%d", cpu), "msr")
}

// Read implements Device: an 8-byte pread at offset reg.
func (d DevFS) Read(cpu int, reg uint32) (uint64, error) {
	f, err := os.Open(d.path(cpu))
	if err != nil {
		return 0, fmt.Errorf("msr: %w", err)
	}
	defer f.Close()
	var buf [8]byte
	if _, err := f.ReadAt(buf[:], int64(reg)); err != nil {
		return 0, fmt.Errorf("msr: reading %#x on cpu %d: %w", reg, cpu, err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Write implements Device: an 8-byte pwrite at offset reg.
func (d DevFS) Write(cpu int, reg uint32, val uint64) error {
	f, err := os.OpenFile(d.path(cpu), os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("msr: %w", err)
	}
	defer f.Close()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	if _, err := f.WriteAt(buf[:], int64(reg)); err != nil {
		return fmt.Errorf("msr: writing %#x on cpu %d: %w", reg, cpu, err)
	}
	return nil
}

// pmcSlot maps each programmable Table 2 event to a PMC index.
var pmcSlot = map[perf.Event]int{
	perf.LLCMisses:     0,
	perf.LLCReferences: 1,
	perf.L1Misses:      2,
	perf.L1Hits:        3,
}

// Counters programs the paper's six events on a set of CPUs and
// implements perf.Reader over them.
type Counters struct {
	dev  Device
	cpus []int
}

// Open programs the four programmable events (Table 2) into PMC0-3,
// zeroes those and the two fixed counters, and enables all six on every
// given CPU.
func Open(dev Device, cpus []int) (*Counters, error) {
	if dev == nil || len(cpus) == 0 {
		return nil, fmt.Errorf("msr: need a device and at least one cpu")
	}
	for _, cpu := range cpus {
		for ev, slot := range pmcSlot {
			info := perf.Table[ev]
			sel := uint64(info.EventNum&0xFF) | uint64(info.Umask)<<8 |
				evtSelUSR | evtSelOS | evtSelEnable
			if err := dev.Write(cpu, regPerfEvtSel0+uint32(slot), sel); err != nil {
				return nil, err
			}
			if err := dev.Write(cpu, regPMC0+uint32(slot), 0); err != nil {
				return nil, err
			}
		}
		// Fixed counters 0 and 1: count user+kernel (0b011 per counter
		// nibble), from zero like PMC0-3, or the first sample's IPC and
		// MAPI divide one period's events by a lifetime of instructions
		// and cycles.
		if err := dev.Write(cpu, regFixedCtrCtrl, 0x033); err != nil {
			return nil, err
		}
		for _, reg := range []uint32{regFixedCtr0, regFixedCtr1} {
			if err := dev.Write(cpu, reg, 0); err != nil {
				return nil, err
			}
		}
		// Global enable: PMC0-3 plus fixed 0-1.
		if err := dev.Write(cpu, regPerfGlobalCtrl, 0xF|0x3<<32); err != nil {
			return nil, err
		}
	}
	return &Counters{dev: dev, cpus: append([]int(nil), cpus...)}, nil
}

// ReadCounter implements perf.Reader. Unreadable counters surface as
// zero: the dCat control loop treats a silent core as idle rather than
// halting the whole socket's management.
func (c *Counters) ReadCounter(cpu int, e perf.Event) uint64 {
	var reg uint32
	switch e {
	case perf.RetiredInstructions:
		reg = regFixedCtr0
	case perf.UnhaltedCycles:
		reg = regFixedCtr1
	default:
		slot, ok := pmcSlot[e]
		if !ok {
			return 0
		}
		reg = regPMC0 + uint32(slot)
	}
	v, err := c.dev.Read(cpu, reg)
	if err != nil {
		return 0
	}
	return v
}

// CPUs returns the programmed CPU set.
func (c *Counters) CPUs() []int { return append([]int(nil), c.cpus...) }
