package policy

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bits"
)

// curveRef is Curve as it stood when the performance table was a
// map[int]float64: At, Preferred and Max scan every entry, len counts
// them. It is the oracle the dense curve must match query for query.
type curveRef map[int]float64

func (t curveRef) At(ways int) (float64, bool) {
	best := -1
	for w := range t {
		if w <= ways && w > best {
			best = w
		}
	}
	if best < 0 {
		return 0, false
	}
	return t[best], true
}

func (t curveRef) Preferred(tol float64) (ways int, ok bool) {
	if len(t) == 0 {
		return 0, false
	}
	max := 0.0
	for _, v := range t {
		if v > max {
			max = v
		}
	}
	best := -1
	for w, v := range t {
		if v >= max-tol && (best == -1 || w < best) {
			best = w
		}
	}
	return best, best >= 0
}

func (t curveRef) Max() int {
	max := 0
	for w := range t {
		if w > max {
			max = w
		}
	}
	return max
}

// curveOf builds a curve from way → value pairs.
func curveOf(m map[int]float64) *Curve {
	c := new(Curve)
	for w, v := range m {
		c.Set(w, v)
	}
	return c
}

// sameFloat is == that also equates NaN with NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// checkCurve replays data as up to 2·bits.MaxWays Set calls over ways
// 1..bits.MaxWays and, after each, compares every query with the map
// reference; then it compares the rows fillRows builds for candidates
// over the final curve with the reference At. Values sit on a coarse
// signed grid (ties and non-positive curves are common), with the odd
// NaN.
func checkCurve(t *testing.T, data []byte) {
	t.Helper()
	data = data[:min(len(data), 4*bits.MaxWays)]
	var c Curve
	ref := curveRef{}
	for len(data) >= 2 {
		w := 1 + int(data[0])%bits.MaxWays
		v := float64(int8(data[1])) / 16
		if data[1] == 0x80 {
			v = math.NaN()
		}
		data = data[2:]
		c.Set(w, v)
		ref[w] = v
		if c.Len() != len(ref) || c.Max() != ref.Max() {
			t.Fatalf("after Set(%d, %v): Len %d Max %d, reference %d %d", w, v, c.Len(), c.Max(), len(ref), ref.Max())
		}
		for q := -1; q <= bits.MaxWays+2; q++ {
			got, ok := c.At(q)
			want, wantOK := ref.At(q)
			if ok != wantOK || !sameFloat(got, want) {
				t.Fatalf("At(%d) = %v %v, reference %v %v (curve %v)", q, got, ok, want, wantOK, ref)
			}
		}
		for _, tol := range []float64{0, 1.0 / 32, 0.5, 3} {
			got, ok := c.Preferred(tol)
			want, wantOK := ref.Preferred(tol)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("Preferred(%v) = %d %v, reference %d %v (curve %v)", tol, got, ok, want, wantOK, ref)
			}
		}
		keys := make([]int, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		if got := c.Ways(); !slices.Equal(got, keys) {
			t.Fatalf("Ways() = %v, reference %v", got, keys)
		}
	}

	// One candidate per window over the final curve: rows must hold the
	// reference At, or 1 where it has no entry.
	var cands []SplitCand
	for lo := 0; lo <= bits.MaxWays; lo += 7 {
		cands = append(cands, SplitCand{Table: &c, Min: lo, Max: lo + lo%5 + 2})
	}
	var s splitScratch
	budget := bits.MaxWays
	s.fillRows(cands, budget)
	for i, cand := range cands {
		row := s.vals[s.rows[i]:s.rows[i+1]]
		if want := max(min(cand.Max, budget)-cand.Min+1, 0); len(row) != want {
			t.Fatalf("candidate %d: row of %d, want %d", i, len(row), want)
		}
		for k, got := range row {
			want, ok := ref.At(cand.Min + k)
			if !ok {
				want = 1
			}
			if !sameFloat(got, want) {
				t.Fatalf("candidate %d row at %d ways = %v, reference %v (curve %v)", i, cand.Min+k, got, want, ref)
			}
		}
	}
}

func FuzzCurve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 16, 5, 20, 6, 24, 7, 24, 8, 24})
	f.Add([]byte{63, 1, 0, 0x80, 31, 0xf0, 63, 2, 0, 16})
	f.Add([]byte{9, 0xff, 9, 0xfe, 2, 0x80, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCurve(t, data)
	})
}

// TestCurveMatchesReference runs the fuzz property over a fixed
// pseudo-random sample on every test run.
func TestCurveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		data := make([]byte, 2*rng.Intn(40))
		rng.Read(data)
		checkCurve(t, data)
	}
}

// TestCurveCopyIsIndependent: a curve is a value — assigning one copies
// it, so a phase-history snapshot never aliases the live table.
func TestCurveCopyIsIndependent(t *testing.T) {
	live := curveOf(map[int]float64{2: 1.0, 7: 1.2})
	snap := *live
	live.Set(9, 1.3)
	live.Set(2, 0.5)
	if snap.Max() != 7 || snap.Len() != 2 {
		t.Errorf("snapshot saw later writes: Max %d Len %d", snap.Max(), snap.Len())
	}
	if v, _ := snap.At(2); v != 1.0 {
		t.Errorf("snapshot At(2) = %v, want 1.0", v)
	}
}
