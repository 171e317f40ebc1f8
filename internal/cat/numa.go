package cat

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/memsys"
)

// NUMABackend is the CAT domain of one socket in a NUMA host: a
// SimBackend over that socket's hierarchy, addressed by global core
// IDs. CBMs and CLOSids are socket-local, as on real hardware: applying
// a class of service through this backend can only mask the owning
// socket's LLC ways, and cores from other sockets are rejected rather
// than silently routed — a controller wired to socket 0 must never
// reconfigure socket 1.
type NUMABackend struct {
	SimBackend
	nsys   *memsys.NUMASystem
	socket int
}

// NewNUMABackend wraps one socket of a NUMA memory system.
func NewNUMABackend(sys *memsys.NUMASystem, socket int) (*NUMABackend, error) {
	if sys == nil {
		return nil, fmt.Errorf("cat: nil NUMA memory system")
	}
	if socket < 0 || socket >= sys.Sockets() {
		return nil, fmt.Errorf("cat: socket %d out of range [0,%d)", socket, sys.Sockets())
	}
	return &NUMABackend{SimBackend: SimBackend{sys: sys.Socket(socket)}, nsys: sys, socket: socket}, nil
}

// Socket returns the owning socket.
func (b *NUMABackend) Socket() int { return b.socket }

// localCores maps global core IDs to this socket's local ones; a core
// homed on another socket is an error.
func (b *NUMABackend) localCores(cores []int) ([]int, error) {
	local := make([]int, len(cores))
	for i, c := range cores {
		s, l := b.nsys.SocketOf(c)
		if s != b.socket {
			return nil, fmt.Errorf("cat: core %d is on socket %d, not socket %d", c, s, b.socket)
		}
		local[i] = l
	}
	return local, nil
}

// Apply implements Backend on the socket's LLC only.
func (b *NUMABackend) Apply(cos int, mask bits.CBM, cores []int) error {
	local, err := b.localCores(cores)
	if err != nil {
		return err
	}
	return b.SimBackend.Apply(cos, mask, local)
}

// GroupOccupancy implements OccupancyReader over the socket's LLC.
func (b *NUMABackend) GroupOccupancy(cos int, cores []int) (uint64, error) {
	local, err := b.localCores(cores)
	if err != nil {
		return 0, err
	}
	return b.SimBackend.GroupOccupancy(cos, local)
}
