package memsys

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/perf"
)

// This file models a multi-socket NUMA host: one System (L1s + LLC +
// CAT masks) per socket, a physical address space striped across the
// sockets' DRAM in one contiguous range per socket, and a remote-access
// penalty added when a core's access misses all the way to another
// socket's memory. CAT domains are socket-local, as on real hardware:
// a CLOSid programmed on socket 0 says nothing about socket 1's ways.

// MaxSockets bounds topology configs; commodity IaaS hosts are 1–8
// sockets.
const MaxSockets = 8

// DefaultRemotePenalty is the extra cost in cycles of a DRAM access to
// another socket's memory — roughly the QPI/UPI hop on Broadwell-class
// parts (remote ~350 cycles vs. local ~220).
const DefaultRemotePenalty = 130

// DefaultMemBytesPerSocket sizes each socket's DRAM range when a
// topology doesn't say otherwise.
const DefaultMemBytesPerSocket = 2 << 30

// NUMAConfig describes a multi-socket host with identical sockets.
type NUMAConfig struct {
	Sockets int
	Socket  Config // geometry of every socket
	// MemBytesPerSocket is the size of each socket's DRAM range. The
	// physical address space is a simple concatenation: socket s homes
	// [s*MemBytesPerSocket, (s+1)*MemBytesPerSocket).
	MemBytesPerSocket uint64
	// RemotePenalty is added to every DRAM access whose line is homed
	// on a different socket than the accessing core. Zero disables the
	// NUMA cost model (useful for determinism comparisons).
	RemotePenalty uint64
}

// Validate checks the topology.
func (c NUMAConfig) Validate() error {
	if c.Sockets < 1 || c.Sockets > MaxSockets {
		return fmt.Errorf("memsys: sockets %d out of range [1,%d]", c.Sockets, MaxSockets)
	}
	if err := c.Socket.Validate(); err != nil {
		return err
	}
	if c.MemBytesPerSocket < 1<<20 {
		return fmt.Errorf("memsys: %d bytes per socket too small (min 1 MB)", c.MemBytesPerSocket)
	}
	return nil
}

// TotalCores returns the core count across all sockets.
func (c NUMAConfig) TotalCores() int { return c.Sockets * c.Socket.Cores }

// NUMASystem composes per-socket Systems behind a socket-routing access
// path. Global core IDs are dense: core g lives on socket g/Cores as
// local core g%Cores. Like System, it is not safe for concurrent use.
type NUMASystem struct {
	cfg      NUMAConfig
	sockets  []*System
	linesPer uint64 // lines homed per socket (MemBytesPerSocket/64)

	// Per accessing socket: how many accesses touched remote-homed
	// lines, and the total penalty cycles those accesses paid.
	remoteAccesses []uint64
	remoteCycles   []uint64

	rep replayer // batch state of Replay
}

// NewNUMA builds the host.
func NewNUMA(cfg NUMAConfig) (*NUMASystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &NUMASystem{
		cfg:            cfg,
		sockets:        make([]*System, cfg.Sockets),
		linesPer:       cfg.MemBytesPerSocket / cache.LineSize,
		remoteAccesses: make([]uint64, cfg.Sockets),
		remoteCycles:   make([]uint64, cfg.Sockets),
	}
	for i := range n.sockets {
		sys, err := New(cfg.Socket)
		if err != nil {
			return nil, err
		}
		n.sockets[i] = sys
	}
	n.rep.init(n)
	return n, nil
}

// MustNewNUMA is NewNUMA for configurations known valid.
func MustNewNUMA(cfg NUMAConfig) *NUMASystem {
	n, err := NewNUMA(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the topology.
func (n *NUMASystem) Config() NUMAConfig { return n.cfg }

// Sockets returns the socket count.
func (n *NUMASystem) Sockets() int { return len(n.sockets) }

// Socket returns one socket's memory system.
func (n *NUMASystem) Socket(i int) *System { return n.sockets[i] }

// TotalCores returns the core count across all sockets.
func (n *NUMASystem) TotalCores() int { return n.cfg.TotalCores() }

// SocketOf maps a global core ID to its socket and socket-local core.
// It panics on out-of-range cores: a bad core ID is a programming error
// in the host model, matching perf.File.Core.
func (n *NUMASystem) SocketOf(core int) (socket, local int) {
	per := n.cfg.Socket.Cores
	socket = core / per
	if core < 0 || socket >= len(n.sockets) {
		panic(fmt.Sprintf("memsys: core %d out of range for %d sockets × %d cores",
			core, len(n.sockets), per))
	}
	return socket, core % per
}

// HomeOf returns the socket whose DRAM homes the given physical line
// address. Lines past the last socket's range clamp to the last socket,
// so a workload sized slightly over the modeled memory still simulates.
func (n *NUMASystem) HomeOf(line uint64) int {
	home := int(line / n.linesPer)
	if home >= len(n.sockets) {
		home = len(n.sockets) - 1
	}
	return home
}

// SetMask installs the LLC fill mask for a global core on its socket.
func (n *NUMASystem) SetMask(core int, m bits.CBM) error {
	s, local := n.SocketOf(core)
	return n.sockets[s].SetMask(local, m)
}

// Mask returns a global core's current LLC fill mask.
func (n *NUMASystem) Mask(core int) bits.CBM {
	s, local := n.SocketOf(core)
	return n.sockets[s].Mask(local)
}

// Access performs one read by a global core, adding the remote penalty
// when the access misses to DRAM on another socket's memory. Caching is
// unaffected by the line's home — the accessing socket's L1/LLC hold
// remote lines exactly like local ones; only the DRAM hop costs more.
func (n *NUMASystem) Access(core int, line uint64) uint64 {
	s, local := n.SocketOf(core)
	lat := n.sockets[s].Access(local, line)
	if n.cfg.RemotePenalty != 0 && n.HomeOf(line) != s {
		n.remoteAccesses[s]++
		if lat == n.cfg.Socket.Lat.DRAM {
			lat += n.cfg.RemotePenalty
			n.remoteCycles[s] += n.cfg.RemotePenalty
		}
	}
	return lat
}

// Retire accounts retired instructions and cycles to a global core.
func (n *NUMASystem) Retire(core int, instructions, cycles uint64) {
	s, local := n.SocketOf(core)
	n.sockets[s].Retire(local, instructions, cycles)
}

// FlushLLC empties every socket's hierarchy.
func (n *NUMASystem) FlushLLC() {
	for _, sys := range n.sockets {
		sys.FlushLLC()
	}
}

// RemoteAccesses returns how many accesses issued by cores on the given
// socket touched lines homed elsewhere (only counted while a remote
// penalty is configured).
func (n *NUMASystem) RemoteAccesses(socket int) uint64 { return n.remoteAccesses[socket] }

// RemotePenaltyCycles returns the total penalty cycles paid by the
// given socket's cores for remote DRAM accesses.
func (n *NUMASystem) RemotePenaltyCycles(socket int) uint64 { return n.remoteCycles[socket] }

// Counters exposes a perf.Reader over global core IDs, routing each
// read to the owning socket's counter file.
func (n *NUMASystem) Counters() perf.Reader { return numaReader{n} }

type numaReader struct{ n *NUMASystem }

func (r numaReader) ReadCounter(core int, e perf.Event) uint64 {
	s, local := r.n.SocketOf(core)
	return r.n.sockets[s].Counters().ReadCounter(local, e)
}

// ParseNUMA parses a compact topology spec of comma-separated key=value
// pairs, e.g. "sockets=2,machine=xeon-d,penalty=150" or
// "sockets=4,cores=8,ways=12,llc_mb=12,mem_mb=1024". Keys:
//
//	sockets  socket count (default 1)
//	machine  geometry preset: xeon-e5 (default) or xeon-d
//	cores    cores per socket (overrides the preset)
//	ways     LLC ways per socket (overrides the preset)
//	llc_mb   LLC megabytes per socket (overrides the preset)
//	mem_mb   DRAM megabytes per socket (default 2048)
//	penalty  remote-access penalty in cycles (default 130)
//
// An empty spec yields one default-geometry socket. The result is
// validated, so zero-socket or zero-way specs return an error rather
// than a panicking topology.
func ParseNUMA(spec string) (NUMAConfig, error) {
	cfg := NUMAConfig{
		Sockets:           1,
		Socket:            XeonE5(),
		MemBytesPerSocket: DefaultMemBytesPerSocket,
		RemotePenalty:     DefaultRemotePenalty,
	}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return NUMAConfig{}, fmt.Errorf("memsys: topology field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "machine":
			switch val {
			case "xeon-e5":
				cfg.Socket = XeonE5()
			case "xeon-d":
				cfg.Socket = XeonD()
			default:
				return NUMAConfig{}, fmt.Errorf("memsys: unknown machine %q (want xeon-e5 or xeon-d)", val)
			}
		case "sockets", "cores", "ways":
			v, err := strconv.ParseInt(val, 10, 16)
			if err != nil {
				return NUMAConfig{}, fmt.Errorf("memsys: topology %s=%q: %v", key, val, err)
			}
			switch key {
			case "sockets":
				cfg.Sockets = int(v)
			case "cores":
				cfg.Socket.Cores = int(v)
			case "ways":
				cfg.Socket.LLC.Ways = int(v)
			}
		case "llc_mb", "mem_mb", "penalty":
			v, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return NUMAConfig{}, fmt.Errorf("memsys: topology %s=%q: %v", key, val, err)
			}
			switch key {
			case "llc_mb":
				cfg.Socket.LLC.SizeBytes = v << 20
			case "mem_mb":
				cfg.MemBytesPerSocket = v << 20
			case "penalty":
				cfg.RemotePenalty = v
			}
		default:
			return NUMAConfig{}, fmt.Errorf("memsys: unknown topology key %q", key)
		}
	}
	if err := cfg.Validate(); err != nil {
		return NUMAConfig{}, err
	}
	return cfg, nil
}
