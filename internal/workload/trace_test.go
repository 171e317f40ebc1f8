package workload

import (
	"bytes"
	"testing"

	"repro/internal/addr"
)

func testParams() Params {
	return Params{AccessesPerInstr: 0.5, MLP: 2, BaseCPI: 0.75}
}

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace("t", testParams(), nil); err == nil {
		t.Error("empty trace should be rejected")
	}
	bad := testParams()
	bad.MLP = 0
	if _, err := NewTrace("t", bad, []uint64{1}); err == nil {
		t.Error("invalid params should be rejected")
	}
}

func TestTraceReplayIsCyclic(t *testing.T) {
	tr, err := NewTrace("t", testParams(), []uint64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 20, 30, 10, 20, 30, 10}
	for i, w := range want {
		if got := tr.NextLine(); got != w {
			t.Fatalf("access %d: got %d want %d", i, got, w)
		}
	}
	if tr.Len() != 3 {
		t.Errorf("Len=%d", tr.Len())
	}
}

func TestTraceRoundTrip(t *testing.T) {
	lines := make([]uint64, 1000)
	for i := range lines {
		lines[i] = uint64(i * 37)
	}
	tr, err := NewTrace("round-trip", testParams(), lines)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "round-trip" {
		t.Errorf("name %q", got.Name())
	}
	if got.Params() != testParams() {
		t.Errorf("params %+v", got.Params())
	}
	if got.Len() != len(lines) {
		t.Fatalf("len %d want %d", got.Len(), len(lines))
	}
	for i := 0; i < len(lines); i++ {
		if g := got.NextLine(); g != lines[i] {
			t.Fatalf("access %d: %d want %d", i, g, lines[i])
		}
	}
}

// TestTraceNextLinesMatchesNextLine checks the bulk draw against the
// per-line one: arbitrary buffer sizes, including ones that wrap the
// cyclic replay mid-buffer, must yield the identical stream.
func TestTraceNextLinesMatchesNextLine(t *testing.T) {
	lines := make([]uint64, 37) // prime-ish length: buffers rarely align
	for i := range lines {
		lines[i] = uint64(i * 13)
	}
	one, err := NewTrace("t", testParams(), lines)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := NewTrace("t", testParams(), lines)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 36, 37, 38, 100} {
		buf := make([]uint64, n)
		bulk.NextLines(buf)
		for i, got := range buf {
			if want := one.NextLine(); got != want {
				t.Fatalf("buf size %d, access %d: %d want %d", n, i, got, want)
			}
		}
	}
}

// TestTraceRoundTripAcrossIOChunks round-trips a trace larger than the
// serialization chunk, with a length that is not a chunk multiple, so
// both the full-chunk and tail paths of WriteTo/ReadTrace are covered.
func TestTraceRoundTripAcrossIOChunks(t *testing.T) {
	lines := make([]uint64, traceIOChunk*2+17)
	for i := range lines {
		lines[i] = uint64(i)*2654435761 + 7
	}
	tr, err := NewTrace("big", testParams(), lines)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(lines) {
		t.Fatalf("len %d want %d", got.Len(), len(lines))
	}
	for i, want := range lines {
		if g := got.NextLine(); g != want {
			t.Fatalf("access %d: %d want %d", i, g, want)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic should be rejected")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should be rejected")
	}
	// Valid header but truncated body.
	tr, _ := NewTrace("x", testParams(), []uint64{1, 2, 3})
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace should be rejected")
	}
}

func TestRecorderCapturesGenerator(t *testing.T) {
	if _, err := NewRecorder(nil); err == nil {
		t.Error("nil generator should be rejected")
	}
	mlr, err := NewMLR(1<<20, addr.PageSize4K, addr.NewSeqAllocator(0), 9)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(mlr)
	if err != nil {
		t.Fatal(err)
	}
	var produced []uint64
	for i := 0; i < 500; i++ {
		produced = append(produced, rec.NextLine())
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("trace len %d", tr.Len())
	}
	for i, want := range produced {
		if got := tr.NextLine(); got != want {
			t.Fatalf("replay diverged at %d: %d want %d", i, got, want)
		}
	}
	if rec.Name() != mlr.Name() || rec.Params() != mlr.Params() {
		t.Error("recorder should mirror the wrapped generator")
	}
	rec.Tick() // must not panic, forwards to MLR
}
