package memsys

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/perf"
)

// smallNUMAConfig composes smallConfig sockets over 1 MB DRAM ranges:
// 16384 lines per socket, so line 16384 is the first one homed on
// socket 1.
func smallNUMAConfig(sockets int, penalty uint64) NUMAConfig {
	return NUMAConfig{
		Sockets:           sockets,
		Socket:            smallConfig(),
		MemBytesPerSocket: 1 << 20,
		RemotePenalty:     penalty,
	}
}

const linesPerSocket = (1 << 20) / 64

func TestNUMAConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*NUMAConfig)
	}{
		{"zero sockets", func(c *NUMAConfig) { c.Sockets = 0 }},
		{"negative sockets", func(c *NUMAConfig) { c.Sockets = -1 }},
		{"too many sockets", func(c *NUMAConfig) { c.Sockets = MaxSockets + 1 }},
		{"zero ways", func(c *NUMAConfig) { c.Socket.LLC.Ways = 0 }},
		{"zero cores", func(c *NUMAConfig) { c.Socket.Cores = 0 }},
		{"tiny memory", func(c *NUMAConfig) { c.MemBytesPerSocket = 1 << 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallNUMAConfig(2, DefaultRemotePenalty)
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
			if _, err := NewNUMA(cfg); err == nil {
				t.Errorf("NewNUMA accepted %s", tc.name)
			}
		})
	}
	if err := smallNUMAConfig(2, 0).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSocketOfMapsGlobalCores(t *testing.T) {
	n := MustNewNUMA(smallNUMAConfig(2, DefaultRemotePenalty)) // 2 cores/socket
	cases := []struct {
		core, socket, local int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 0}, {3, 1, 1},
	}
	for _, tc := range cases {
		s, l := n.SocketOf(tc.core)
		if s != tc.socket || l != tc.local {
			t.Errorf("SocketOf(%d)=(%d,%d) want (%d,%d)", tc.core, s, l, tc.socket, tc.local)
		}
	}
	for _, bad := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SocketOf(%d) did not panic", bad)
				}
			}()
			n.SocketOf(bad)
		}()
	}
}

func TestHomeOfConcatenatesAndClamps(t *testing.T) {
	n := MustNewNUMA(smallNUMAConfig(2, DefaultRemotePenalty))
	cases := []struct {
		line uint64
		home int
	}{
		{0, 0},
		{linesPerSocket - 1, 0},
		{linesPerSocket, 1},
		{2*linesPerSocket - 1, 1},
		{2 * linesPerSocket, 1}, // past modeled memory: clamp to last socket
		{1 << 40, 1},
	}
	for _, tc := range cases {
		if got := n.HomeOf(tc.line); got != tc.home {
			t.Errorf("HomeOf(%d)=%d want %d", tc.line, got, tc.home)
		}
	}
}

// TestAccessRouting drives the socket-routing access path through its
// latency levels: only DRAM-level misses on remote-homed lines pay the
// cross-socket penalty; hits in the accessing socket's caches never do.
func TestAccessRouting(t *testing.T) {
	const penalty = 130
	remoteLine := uint64(linesPerSocket) // homed on socket 1
	cases := []struct {
		name string
		core int
		prep func(n *NUMASystem)
		line uint64
		want func(lat Latency) uint64
	}{
		{
			name: "local cold miss pays plain DRAM",
			core: 0, line: 0,
			want: func(lat Latency) uint64 { return lat.DRAM },
		},
		{
			name: "remote cold miss pays DRAM plus penalty",
			core: 0, line: remoteLine,
			want: func(lat Latency) uint64 { return lat.DRAM + penalty },
		},
		{
			name: "remote line local to its own socket pays plain DRAM",
			core: 2, line: remoteLine, // core 2 is on socket 1
			want: func(lat Latency) uint64 { return lat.DRAM },
		},
		{
			name: "L1 hit on remote-homed line pays no penalty",
			core: 0, line: remoteLine,
			prep: func(n *NUMASystem) { n.Access(0, remoteLine) },
			want: func(lat Latency) uint64 { return lat.L1Hit },
		},
		{
			name: "LLC hit on remote-homed line pays no penalty",
			core: 0, line: remoteLine,
			prep: func(n *NUMASystem) {
				// Warm the line, then evict it from the 2-set 2-way L1
				// with two more set-0 conflicts (also remote, also even).
				n.Access(0, remoteLine)
				n.Access(0, remoteLine+2)
				n.Access(0, remoteLine+4)
			},
			want: func(lat Latency) uint64 { return lat.LLCHit },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := MustNewNUMA(smallNUMAConfig(2, penalty))
			if tc.prep != nil {
				tc.prep(n)
			}
			lat := n.Config().Socket.Lat
			if got := n.Access(tc.core, tc.line); got != tc.want(lat) {
				t.Errorf("Access(%d, %d)=%d want %d", tc.core, tc.line, got, tc.want(lat))
			}
		})
	}
}

func TestRemoteCountersAccumulate(t *testing.T) {
	n := MustNewNUMA(smallNUMAConfig(2, 130))
	n.Access(0, linesPerSocket) // remote DRAM miss: counted + penalized
	n.Access(0, linesPerSocket) // remote L1 hit: counted, no penalty
	n.Access(0, 0)              // local: neither
	n.Access(2, linesPerSocket) // local to socket 1: neither
	n.Access(2, 0)              // remote from socket 1
	if got := n.RemoteAccesses(0); got != 2 {
		t.Errorf("socket 0 remote accesses=%d want 2", got)
	}
	if got := n.RemotePenaltyCycles(0); got != 130 {
		t.Errorf("socket 0 penalty cycles=%d want 130", got)
	}
	if got := n.RemoteAccesses(1); got != 1 {
		t.Errorf("socket 1 remote accesses=%d want 1", got)
	}
	if got := n.RemotePenaltyCycles(1); got != 130 {
		t.Errorf("socket 1 penalty cycles=%d want 130", got)
	}
}

// TestMaskSocketLocal pins the CAT-domain boundary at the memsys layer:
// setting a mask through a global core ID only changes that core's
// socket, and each socket's cores keep independent masks.
func TestMaskSocketLocal(t *testing.T) {
	n := MustNewNUMA(smallNUMAConfig(2, 0))
	ways := n.Config().Socket.LLC.Ways
	narrow := bits.MustCBM(0, 1)
	if err := n.SetMask(2, narrow); err != nil { // socket 1, local core 0
		t.Fatal(err)
	}
	if got := n.Mask(2); got != narrow {
		t.Errorf("core 2 mask=%s want %s", got, narrow)
	}
	full := bits.FullMask(ways)
	for _, core := range []int{0, 1, 3} {
		if got := n.Mask(core); got != full {
			t.Errorf("core %d mask=%s want untouched %s", core, got, full)
		}
	}
	if got := n.Socket(0).Mask(0); got != full {
		t.Errorf("socket 0 local core 0 mask=%s: mask leaked across sockets", got)
	}
	if got := n.Socket(1).Mask(0); got != narrow {
		t.Errorf("socket 1 local core 0 mask=%s want %s", got, narrow)
	}
}

// TestSingleSocketMatchesSystem is the determinism anchor: a 1-socket
// NUMA system with zero penalty must be indistinguishable from a bare
// System — same per-access latencies, same counters.
func TestSingleSocketMatchesSystem(t *testing.T) {
	n := MustNewNUMA(smallNUMAConfig(1, 0))
	s := MustNew(smallConfig())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		core := rng.Intn(2)
		// Range past the socket's 16384 homed lines to exercise clamping.
		line := uint64(rng.Intn(3 * linesPerSocket))
		nl := n.Access(core, line)
		sl := s.Access(core, line)
		if nl != sl {
			t.Fatalf("access %d: NUMA latency %d != System latency %d", i, nl, sl)
		}
	}
	for core := 0; core < 2; core++ {
		for e := perf.Event(0); int(e) < perf.NumEvents; e++ {
			if got, want := n.Counters().ReadCounter(core, e), s.Counters().ReadCounter(core, e); got != want {
				t.Errorf("core %d %s: NUMA=%d System=%d", core, e, got, want)
			}
		}
	}
	if n.RemoteAccesses(0) != 0 || n.RemotePenaltyCycles(0) != 0 {
		t.Error("single-socket system recorded remote traffic")
	}
}

func TestNUMARetireAndFlush(t *testing.T) {
	n := MustNewNUMA(smallNUMAConfig(2, 0))
	n.Retire(3, 1000, 2500) // socket 1, local core 1
	if got := n.Counters().ReadCounter(3, perf.RetiredInstructions); got != 1000 {
		t.Errorf("RetiredInstructions=%d want 1000", got)
	}
	if got := n.Socket(1).Counters().ReadCounter(1, perf.RetiredInstructions); got != 1000 {
		t.Errorf("socket-local RetiredInstructions=%d want 1000", got)
	}
	if got := n.Socket(0).Counters().ReadCounter(1, perf.RetiredInstructions); got != 0 {
		t.Errorf("retire leaked to socket 0: %d", got)
	}
	n.Access(0, 1)
	n.Access(2, linesPerSocket+1)
	n.FlushLLC()
	if n.Socket(0).LLC().Probe(1) || n.Socket(1).LLC().Probe(linesPerSocket+1) {
		t.Error("FlushLLC left lines resident")
	}
}

func TestParseNUMA(t *testing.T) {
	cases := []struct {
		spec string
		want func(t *testing.T, cfg NUMAConfig)
		err  bool
	}{
		{spec: "", want: func(t *testing.T, cfg NUMAConfig) {
			if cfg.Sockets != 1 || cfg.Socket.Cores != XeonE5().Cores ||
				cfg.RemotePenalty != DefaultRemotePenalty ||
				cfg.MemBytesPerSocket != DefaultMemBytesPerSocket {
				t.Errorf("empty spec defaults wrong: %+v", cfg)
			}
		}},
		{spec: "sockets=2,machine=xeon-d,penalty=150", want: func(t *testing.T, cfg NUMAConfig) {
			if cfg.Sockets != 2 || cfg.Socket.Cores != 8 || cfg.RemotePenalty != 150 {
				t.Errorf("parsed %+v", cfg)
			}
		}},
		{spec: " sockets=4 , cores=8 , ways=16 , llc_mb=16 , mem_mb=1024 ", want: func(t *testing.T, cfg NUMAConfig) {
			if cfg.Sockets != 4 || cfg.Socket.Cores != 8 || cfg.Socket.LLC.Ways != 16 ||
				cfg.Socket.LLC.SizeBytes != 16<<20 || cfg.MemBytesPerSocket != 1<<30 {
				t.Errorf("parsed %+v", cfg)
			}
		}},
		{spec: "sockets=0", err: true},
		{spec: "ways=0", err: true},
		{spec: "sockets=9", err: true},
		{spec: "machine=epyc", err: true},
		{spec: "bogus=1", err: true},
		{spec: "sockets", err: true},
		{spec: "sockets=two", err: true},
		{spec: "mem_mb=0", err: true},
	}
	for _, tc := range cases {
		cfg, err := ParseNUMA(tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("ParseNUMA(%q) accepted invalid spec: %+v", tc.spec, cfg)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseNUMA(%q): %v", tc.spec, err)
			continue
		}
		tc.want(t, cfg)
	}
}
