package memsys

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/perf"
)

// This file is the batched access path. CAT restricts which ways a core
// may fill, never which sets, so a socket's hierarchy is a product of
// independent sets: an access to line l touches only l's L1 set, l's
// LLC set, and — when the LLC evicts a victim from that same set — the
// victim's L1 sets, which share l's set index. Replay cuts a batch into
// partitions keyed by (socket, set class) that share no cache state,
// runs them on a small pool of helper goroutines, and sums each block's
// outcome counts over the partitions in block order. Every partition
// replays its lines in batch order, so each set sees the same access
// sequence as under per-line Access, and each partition counts in its
// class's lane of every cache, which keeps LRU clocks and counters
// apart. The result is the same on any
// partition count and any goroutine schedule.

// Block is one host block: lines a core issues back to back.
type Block struct {
	Core  int // global core ID
	Lines []uint64
}

// outcome counts what a run of lines did.
type outcome struct {
	l1Hits, llcHits, llcMisses uint64
	// remote counts accesses to lines homed on another socket, and
	// remoteMisses the LLC misses among them: the DRAM accesses that
	// pay the remote penalty.
	remote, remoteMisses uint64
}

func (o *outcome) add(p *outcome) {
	o.l1Hits += p.l1Hits
	o.llcHits += p.llcHits
	o.llcMisses += p.llcMisses
	o.remote += p.remote
	o.remoteMisses += p.remoteMisses
}

// parallelMinLines is the smallest batch worth waking helpers for; a
// smaller one runs on the caller in one pass.
const parallelMinLines = 4096

// partition is one (socket, class) share of a batch.
type partition struct {
	socket int
	class  uint64
	out    []outcome // per block of the batch; only the socket's blocks are written
	buf    []uint64  // the current block's lines of this class
}

// replayer is a NUMASystem's batch state. Partitions are claimed, not
// assigned: the caller and any helper it woke take the next unclaimed
// partition until none is left, so a helper that is slow to start
// leaves its share to the others instead of stalling the batch.
type replayer struct {
	n     *NUMASystem
	parts []partition
	// lo[s], hi[s] bound the lines socket s homes; with no remote
	// penalty every line counts as local.
	lo, hi []uint64
	// helpers is how many pool goroutines a batch may wake, and procs
	// the GOMAXPROCS they and the caller share.
	helpers, procs int

	blocks []Block
	total  []outcome // per block, summed over partitions

	epoch uint32
	// state packs epoch<<32 | partitions<<16 | next unclaimed partition;
	// a claim is a CAS on it, so a helper woken for an earlier batch
	// sees the epoch moved on and claims nothing.
	state   atomic.Uint64
	pending atomic.Int32 // partitions not yet finished
	done    chan struct{}
}

func (r *replayer) init(n *NUMASystem) {
	r.n = n
	classes := n.sockets[0].classes
	for s := range n.sockets {
		for c := 0; c < classes; c++ {
			r.parts = append(r.parts, partition{socket: s, class: uint64(c)})
		}
	}
	r.lo = make([]uint64, len(n.sockets))
	r.hi = make([]uint64, len(n.sockets))
	for s := range n.sockets {
		r.lo[s], r.hi[s] = 0, math.MaxUint64
		if n.cfg.RemotePenalty != 0 {
			r.lo[s] = uint64(s) * n.linesPer
			if s < len(n.sockets)-1 { // the last socket homes every line past its base
				r.hi[s] = uint64(s+1) * n.linesPer
			}
		}
	}
	r.procs = runtime.GOMAXPROCS(0)
	r.helpers = min(r.procs, len(r.parts)) - 1
	r.done = make(chan struct{}, 1)
}

// Replay runs the blocks through the hierarchy in order and stores each
// block's summed access latency in lat[i]. Cache state, perf counters
// and remote-access counts end exactly as if every line had gone
// through Access in block order.
func (n *NUMASystem) Replay(blocks []Block, lat []uint64) {
	replaying.Add(1)
	defer replaying.Add(-1)
	r := &n.rep
	if cap(r.total) < len(blocks) {
		r.total = make([]outcome, len(blocks))
	}
	total := r.total[:len(blocks)]
	lines, longest := 0, 0
	for _, b := range blocks {
		lines += len(b.Lines)
		longest = max(longest, len(b.Lines))
	}
	// Wake helpers only for CPUs no other replay is using: when parallel
	// experiments already keep every CPU replaying, a helper would only
	// take turns with them, and the caller is fastest alone in one pass.
	helpers := 0
	if lines >= parallelMinLines {
		helpers = min(r.helpers, len(r.parts)-1, r.procs-int(replaying.Load()))
	}
	if helpers > 0 || partitionsForTest > 0 {
		r.blocks = blocks
		r.run(longest, helpers)
		r.blocks = nil
		classes := n.sockets[0].classes
		for i, b := range blocks {
			s, _ := n.SocketOf(b.Core)
			total[i] = outcome{}
			for p := s * classes; p < (s+1)*classes; p++ {
				total[i].add(&r.parts[p].out[i])
			}
		}
	} else {
		for i, b := range blocks {
			s, local := n.SocketOf(b.Core)
			total[i] = n.sockets[s].replay(local, b.Lines, r.lo[s], r.hi[s], 0)
		}
	}
	penalty := n.cfg.RemotePenalty
	for i, b := range blocks {
		o := &total[i]
		s, local := n.SocketOf(b.Core)
		sys := n.sockets[s]
		bank := sys.ctrs.Core(local)
		l1Misses := o.llcHits + o.llcMisses
		bank.Add(perf.L1Hits, o.l1Hits)
		bank.Add(perf.L1Misses, l1Misses)
		bank.Add(perf.LLCReferences, l1Misses)
		bank.Add(perf.LLCMisses, o.llcMisses)
		n.remoteAccesses[s] += o.remote
		n.remoteCycles[s] += o.remoteMisses * penalty
		lat[i] = o.l1Hits*sys.cfg.Lat.L1Hit + o.llcHits*sys.cfg.Lat.LLCHit +
			o.llcMisses*sys.cfg.Lat.DRAM + o.remoteMisses*penalty
	}
}

// run replays r.blocks partition by partition, on the caller and on up
// to helpers idle helpers.
func (r *replayer) run(longest, helpers int) {
	for i := range r.parts {
		p := &r.parts[i]
		if cap(p.out) < len(r.blocks) {
			p.out = make([]outcome, len(r.blocks))
		}
		p.out = p.out[:len(r.blocks)]
		if cap(p.buf) < longest {
			p.buf = make([]uint64, longest)
		}
	}
	// Sets move from lane 0 to their class's lane for the batch, and
	// back after it.
	for _, sys := range r.n.sockets {
		sys.syncLanes()
	}
	r.epoch++
	r.pending.Store(int32(len(r.parts)))
	r.state.Store(uint64(r.epoch)<<32 | uint64(len(r.parts))<<16)
	wakeHelpers(r, helpers)
	if !r.work(r.epoch) {
		<-r.done
	}
	for _, sys := range r.n.sockets {
		sys.syncLanes()
	}
}

// claim takes the next unclaimed partition of the given batch.
func (r *replayer) claim(epoch uint32) (int, bool) {
	for {
		v := r.state.Load()
		next, parts := v&0xffff, v>>16&0xffff
		if uint32(v>>32) != epoch || next >= parts {
			return 0, false
		}
		if r.state.CompareAndSwap(v, v+1) {
			return int(next), true
		}
	}
}

// work claims and runs partitions of the given batch until none is
// left, and reports whether it finished the batch's last one.
func (r *replayer) work(epoch uint32) (last bool) {
	for {
		p, ok := r.claim(epoch)
		if !ok {
			return last
		}
		r.runPartition(&r.parts[p])
		if r.pending.Add(-1) == 0 {
			last = true
		}
	}
}

// runPartition replays one partition's share of every block of its
// socket, in block order.
func (r *replayer) runPartition(p *partition) {
	sys := r.n.sockets[p.socket]
	lo, hi := r.lo[p.socket], r.hi[p.socket]
	shift, mask := sys.classShift, uint64(sys.classes-1)
	for i, b := range r.blocks {
		s, local := r.n.SocketOf(b.Core)
		if s != p.socket {
			continue
		}
		lines := b.Lines
		if mask != 0 {
			// Branch-free compaction: the class of a line is as good
			// as random, so a branch on it would mispredict half the
			// time.
			buf := p.buf[:len(lines)]
			k := 0
			for _, l := range lines {
				buf[k] = l
				x := (l >> shift & mask) ^ p.class // 0 iff l is in p's class
				k += int((x - 1) >> 63)
			}
			lines = buf[:k]
		}
		p.out[i] = sys.replay(local, lines, lo, hi, int(p.class))
	}
}

// replaying counts the goroutines replaying right now, callers and
// helpers of every NUMASystem alike.
var replaying atomic.Int32

// wakeCh hands a batch to idle helpers. It is unbuffered and sends do
// not block, so a batch is only offered to helpers parked on it: nothing
// queues, and a busy pool leaves the caller to do the work itself.
var wakeCh = make(chan wakeup)

type wakeup struct {
	r     *replayer
	epoch uint32
}

// helpersStarted counts the pool's goroutines. The pool is shared by
// every NUMASystem in the process, so its goroutines live for the
// process: they hold nothing while idle and block on wakeCh. Starting
// one per batch instead would allocate its closure every batch.
var helpersStarted atomic.Int32

func wakeHelpers(r *replayer, k int) {
	for started := int(helpersStarted.Load()); started < k; started = int(helpersStarted.Load()) {
		if helpersStarted.CompareAndSwap(int32(started), int32(started+1)) {
			go helper()
		}
	}
	for i := 0; i < k; i++ {
		select {
		case wakeCh <- wakeup{r, r.epoch}:
		default:
			return
		}
	}
}

func helper() {
	for w := range wakeCh {
		replaying.Add(1)
		last := w.r.work(w.epoch)
		replaying.Add(-1)
		if last {
			w.r.done <- struct{}{}
		}
	}
}
