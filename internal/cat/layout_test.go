package cat

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/bits"
)

// TestSetAllocationHalfApplied fails the k-th Apply of a layout change
// that moves every mask. After the error each group records exactly
// what the backend last accepted for its COS; a layout stopped after a
// grown group overlaps its neighbour, and Validate says so; and the
// next SetAllocation on a healthy backend reaches the requested layout.
func TestSetAllocationHalfApplied(t *testing.T) {
	from, to := []int{2, 3, 4}, []int{4, 3, 2}
	for k := 1; k <= len(to); k++ {
		t.Run(fmt.Sprintf("fail_apply_%d", k), func(t *testing.T) {
			fb := newFake(12)
			m, _ := NewManager(fb)
			for i, n := range []string{"a", "b", "c"} {
				if _, err := m.CreateGroup(n, []int{i}); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.SetAllocation(from); err != nil {
				t.Fatal(err)
			}
			fb.applies, fb.failOn = 0, k
			if err := m.SetAllocation(to); err == nil {
				t.Fatalf("apply %d failed but SetAllocation returned nil", k)
			}
			for _, g := range m.Groups() {
				if g.Mask != fb.applied[g.COS] || g.Ways != g.Mask.Count() {
					t.Errorf("group %q records %s (%d ways), backend last accepted %s",
						g.Name, g.Mask, g.Ways, fb.applied[g.COS])
				}
			}
			// a grew from 0-1 to 0-3, then b to 4-6: a failure after
			// the first Apply leaves a grown group beside a neighbour
			// that kept its old mask.
			if err := m.Validate(); (err != nil) != (k > 1) {
				t.Errorf("Validate after a failure on apply %d: %v", k, err)
			}
			fb.failOn = 0
			if err := m.SetAllocation(to); err != nil {
				t.Fatal(err)
			}
			start := 0
			for i, g := range m.Groups() {
				if want := bits.MustCBM(start, to[i]); g.Mask != want || fb.applied[g.COS] != want {
					t.Errorf("group %q at %s (backend %s), want %s", g.Name, g.Mask, fb.applied[g.COS], want)
				}
				start += to[i]
			}
			if err := m.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// modelGroup is FuzzManagerOps's expectation of one group.
type modelGroup struct {
	name  string
	cos   int
	cores []int
	ways  int
	mask  bits.CBM
}

// FuzzManagerOps drives CreateGroup, RemoveGroup and SetAllocation from
// fuzz bytes, valid and invalid, against a recording backend, and
// checks the manager against a model after every call: a call succeeds
// exactly when the rules allow it, Groups() is creation order minus
// removals, a new group gets the smallest free COS, a successful
// SetAllocation packs the masks in order, Validate passes, each
// allocated COS's last applied mask is its group's Mask, and a rejected
// call changes nothing.
func FuzzManagerOps(f *testing.F) {
	f.Add([]byte{12, 0, 1, 3, 2, 6, 3, 2, 2, 3, 4})
	f.Add([]byte{4, 0, 1, 3, 1, 6, 2, 9, 3, 2, 1, 1, 1, 4, 0, 2, 3, 2, 1, 0})
	f.Add([]byte{20, 0, 1, 3, 2, 6, 3, 9, 4, 2, 4, 4, 4, 4, 4, 4, 1, 0, 7, 5, 2, 2, 3, 1, 1, 0})
	// COS reuse: g0 and then g2 leave, and g3 and g4 take their COS.
	f.Add([]byte{11, 0, 1, 3, 2, 6, 3, 1, 0, 9, 4, 2, 0, 2, 3, 4, 7, 0, 12, 5, 2, 0, 1, 1, 1})
	// Counts for three groups, then one, where two exist: both fit the
	// ways and both are rejected.
	f.Add([]byte{11, 0, 1, 3, 2, 8, 3, 1, 1, 1, 2, 3, 1, 2, 0, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fb := newFake(1 + int(data[0])%20)
		m, err := NewManager(fb)
		if err != nil {
			t.Fatal(err)
		}
		var model []modelGroup
		find := func(name string) int {
			return slices.IndexFunc(model, func(g modelGroup) bool { return g.name == name })
		}
		data = data[1:]
		for step := 0; len(data) >= 2; step++ {
			op, a, b := data[0]%3, int(data[0]/3), int(data[1])
			data = data[2:]
			name := fmt.Sprintf("g%d", a%8)
			applied := maps.Clone(fb.applied)
			var valid bool
			var what string
			switch op {
			case 0:
				if a%8 == 7 {
					name = ""
				}
				var cores []int
				if b%6 != 0 {
					cores = append(cores, b%6)
				}
				if b >= 128 {
					cores = append(cores, b%5)
				}
				what = fmt.Sprintf("CreateGroup(%q, %v)", name, cores)
				owned := false
				for _, g := range model {
					for _, c := range cores {
						owned = owned || slices.Contains(g.cores, c)
					}
				}
				valid = name != "" && find(name) < 0 && len(model) < MaxCOS &&
					len(model) < fb.ways && len(cores) > 0 && !owned
				_, err = m.CreateGroup(name, cores)
				if valid {
					cos := 1
					for slices.ContainsFunc(model, func(g modelGroup) bool { return g.cos == cos }) {
						cos++
					}
					model = append(model, modelGroup{name: name, cos: cos, cores: cores})
				}
			case 1:
				what = fmt.Sprintf("RemoveGroup(%q)", name)
				i := find(name)
				valid = i >= 0
				err = m.RemoveGroup(name)
				if valid {
					model = slices.Delete(model, i, i+1)
				}
			case 2:
				n := len(model)
				if b%4 == 3 {
					n = max(n+a%3-1, 0) // a wrong length, or by chance the right one
				}
				if n > len(data) {
					return
				}
				ways := make([]int, n)
				sum := 0
				for i := range ways {
					ways[i] = int(data[i]) % 5
					sum += ways[i]
				}
				data = data[n:]
				what = fmt.Sprintf("SetAllocation(%v)", ways)
				valid = n == len(model) && !slices.Contains(ways, 0) && sum <= fb.ways
				err = m.SetAllocation(ways)
				if valid {
					start := 0
					for i := range model {
						model[i].ways = ways[i]
						model[i].mask = bits.MustCBM(start, ways[i])
						start += ways[i]
					}
				}
			}
			if (err == nil) != valid {
				t.Fatalf("step %d: %s returned %v, want success %v", step, what, err, valid)
			}
			if err != nil && !maps.Equal(fb.applied, applied) {
				t.Fatalf("step %d: rejected %s reached the backend", step, what)
			}
			gs := m.Groups()
			if len(gs) != len(model) {
				t.Fatalf("step %d: after %s %d groups, model has %d", step, what, len(gs), len(model))
			}
			for i, g := range gs {
				w := model[i]
				if g.Name != w.name || g.COS != w.cos || !slices.Equal(g.Cores, w.cores) ||
					g.Ways != w.ways || g.Mask != w.mask {
					t.Fatalf("step %d: after %s slot %d is %+v, model %+v", step, what, i, *g, w)
				}
				if g.Ways > 0 && fb.applied[g.COS] != g.Mask {
					t.Fatalf("step %d: COS %d last applied %s, group %q holds %s",
						step, g.COS, fb.applied[g.COS], g.Name, g.Mask)
				}
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("step %d: after %s: %v", step, what, err)
			}
		}
	})
}
