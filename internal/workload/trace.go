package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Trace support: record any generator's physical line-address stream to
// a compact binary file and replay it later as a workload. This is how
// real traces (e.g. from a PIN tool or a hardware trace unit) plug into
// the simulator, and how a synthetic run is made exactly repeatable
// across machines.
//
// Format (little-endian):
//
//	magic "DCT1"
//	uint16 name length, name bytes
//	3 x float64: AccessesPerInstr, MLP, BaseCPI
//	uint64 line count, then count x uint64 line addresses

const traceMagic = "DCT1"

// MaxTraceLines bounds in-memory traces (8 B per access).
const MaxTraceLines = 1 << 27

// traceIOChunk is how many line addresses serialize per buffered
// read/write when streaming a trace body.
const traceIOChunk = 8 << 10

// Trace is a recorded access stream replayed cyclically.
type Trace struct {
	name   string
	params Params
	lines  []uint64
	pos    int
}

// NewTrace builds an in-memory trace workload.
func NewTrace(name string, params Params, lines []uint64) (*Trace, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("workload: trace %s: %w", name, err)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("workload: trace %s has no accesses", name)
	}
	if len(lines) > MaxTraceLines {
		return nil, fmt.Errorf("workload: trace %s has %d accesses; max %d", name, len(lines), MaxTraceLines)
	}
	return &Trace{name: name, params: params, lines: lines}, nil
}

// Name implements Generator.
func (t *Trace) Name() string { return t.name }

// Params implements Generator.
func (t *Trace) Params() Params { return t.params }

// NextLine implements Generator: the trace replays cyclically.
func (t *Trace) NextLine() uint64 {
	l := t.lines[t.pos]
	t.pos++
	if t.pos == len(t.lines) {
		t.pos = 0
	}
	return l
}

// NextLines implements BulkGenerator: copy-out with cyclic wraparound,
// identical to len(buf) successive NextLine calls.
func (t *Trace) NextLines(buf []uint64) {
	for n := 0; n < len(buf); {
		k := copy(buf[n:], t.lines[t.pos:])
		n += k
		t.pos += k
		if t.pos == len(t.lines) {
			t.pos = 0
		}
	}
}

// Tick implements Generator.
func (t *Trace) Tick() {}

// Len returns the trace length in accesses.
func (t *Trace) Len() int { return len(t.lines) }

// WriteTo serializes the trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.WriteString(traceMagic)); err != nil {
		return n, err
	}
	var hdr [2]byte
	if len(t.name) > math.MaxUint16 {
		return n, fmt.Errorf("workload: trace name too long")
	}
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(t.name)))
	if err := count(bw.Write(hdr[:])); err != nil {
		return n, err
	}
	if err := count(bw.WriteString(t.name)); err != nil {
		return n, err
	}
	var buf [8]byte
	for _, f := range []float64{t.params.AccessesPerInstr, t.params.MLP, t.params.BaseCPI} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		if err := count(bw.Write(buf[:])); err != nil {
			return n, err
		}
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(t.lines)))
	if err := count(bw.Write(buf[:])); err != nil {
		return n, err
	}
	// Encode the body in chunks: per-line 8-byte writes dominate the
	// save time of long traces.
	chunk := make([]byte, traceIOChunk*8)
	for start := 0; start < len(t.lines); start += traceIOChunk {
		body := t.lines[start:]
		if len(body) > traceIOChunk {
			body = body[:traceIOChunk]
		}
		for i, l := range body {
			binary.LittleEndian.PutUint64(chunk[i*8:], l)
		}
		if err := count(bw.Write(chunk[:len(body)*8])); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (magic %q)", magic)
	}
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	name := make([]byte, binary.LittleEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("workload: trace name: %w", err)
	}
	var buf [8]byte
	floats := make([]float64, 3)
	for i := range floats {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("workload: trace params: %w", err)
		}
		floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	params := Params{AccessesPerInstr: floats[0], MLP: floats[1], BaseCPI: floats[2]}
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("workload: trace count: %w", err)
	}
	count := binary.LittleEndian.Uint64(buf[:])
	if count == 0 || count > MaxTraceLines {
		return nil, fmt.Errorf("workload: trace count %d out of range", count)
	}
	lines := make([]uint64, count)
	chunk := make([]byte, traceIOChunk*8)
	for i := 0; i < len(lines); {
		n := len(lines) - i
		if n > traceIOChunk {
			n = traceIOChunk
		}
		if _, err := io.ReadFull(br, chunk[:n*8]); err != nil {
			return nil, fmt.Errorf("workload: trace body at access %d: %w", i, err)
		}
		for j := 0; j < n; j++ {
			lines[i+j] = binary.LittleEndian.Uint64(chunk[j*8:])
		}
		i += n
	}
	return NewTrace(string(name), params, lines)
}

// Recorder wraps a generator and captures every line it produces, up to
// MaxTraceLines, for saving as a Trace.
type Recorder struct {
	Gen   Generator
	lines []uint64
	over  bool
}

// NewRecorder wraps gen.
func NewRecorder(gen Generator) (*Recorder, error) {
	if gen == nil {
		return nil, fmt.Errorf("workload: recorder needs a generator")
	}
	return &Recorder{Gen: gen}, nil
}

// Name implements Generator.
func (r *Recorder) Name() string { return r.Gen.Name() }

// Params implements Generator.
func (r *Recorder) Params() Params { return r.Gen.Params() }

// NextLine implements Generator, capturing the access.
func (r *Recorder) NextLine() uint64 {
	l := r.Gen.NextLine()
	if len(r.lines) < MaxTraceLines {
		r.lines = append(r.lines, l)
	} else {
		r.over = true
	}
	return l
}

// Tick implements Generator.
func (r *Recorder) Tick() { r.Gen.Tick() }

// Trace returns the captured accesses as a replayable trace. An error
// is returned when the capture overflowed (the trace would be partial).
func (r *Recorder) Trace() (*Trace, error) {
	if r.over {
		return nil, fmt.Errorf("workload: recording of %s overflowed %d accesses", r.Gen.Name(), MaxTraceLines)
	}
	return NewTrace(r.Gen.Name(), r.Gen.Params(), r.lines)
}
