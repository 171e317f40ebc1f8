package resctrl

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bits"
)

// readFile returns a file's raw bytes.
func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestApplyRewritesInPlace: the held schemata file holds exactly the
// last line, as os.WriteFile would leave it, whether the line shrinks
// or grows.
func TestApplyRewritesInPlace(t *testing.T) {
	dir := mockTree(t)
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cos1", "schemata")
	for _, tc := range []struct {
		mask bits.CBM
		want string
	}{
		{bits.MustCBM(10, 10), "L3:0=ffc00\n"},
		{bits.MustCBM(0, 2), "L3:0=3\n"},
		{bits.FullMask(20), "L3:0=fffff\n"},
	} {
		if err := b.Apply(1, tc.mask, []int{0}); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); got != tc.want {
			t.Errorf("after Apply(%s) schemata holds %q, want %q", tc.mask, got, tc.want)
		}
	}
}

// TestApplyRandomSequence: after many Applies across COS ids, every
// group's schemata holds exactly the line of its last mask.
func TestApplyRandomSequence(t *testing.T) {
	dir := mockTree(t)
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	last := map[int]bits.CBM{}
	for range 1000 {
		cos := 1 + rng.Intn(b.MaxCOS()-1)
		count := 1 + rng.Intn(b.TotalWays())
		mask := bits.MustCBM(rng.Intn(b.TotalWays()-count+1), count)
		if err := b.Apply(cos, mask, []int{rng.Intn(18)}); err != nil {
			t.Fatal(err)
		}
		last[cos] = mask
	}
	for cos, mask := range last {
		want := "L3:0=" + mask.String()
		if got, err := b.Schemata(cos); err != nil || got != want {
			t.Errorf("Schemata(%d)=%q,%v want %q", cos, got, err, want)
		}
		if got := readFile(t, filepath.Join(b.groupDir(cos), "schemata")); got != want+"\n" {
			t.Errorf("cos%d/schemata holds %q, want %q", cos, got, want+"\n")
		}
	}
}

// TestApplyRecreatesRemovedGroup: a group directory removed under the
// backend fails one Apply, and the next recreates it and writes both
// the line and cpus_list, whether the cores change or stay the same,
// and also when another writer re-created the group in between.
// kernfs fails the held schemata write itself (ENODEV); on the mock
// tree the write lands in the unlinked file, and the check that the
// path still names the held file fails it.
func TestApplyRecreatesRemovedGroup(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cores    []int
		recreate bool
		wantCPUs string
	}{
		{"same cores", []int{0, 1}, false, "0-1\n"},
		{"new cores", []int{2, 3}, false, "2-3\n"},
		{"re-created by another writer", []int{0, 1}, true, "0-1\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := mockTree(t)
			b, err := NewBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Apply(1, bits.MustCBM(0, 4), []int{0, 1}); err != nil {
				t.Fatal(err)
			}
			group := filepath.Join(dir, "cos1")
			if err := os.RemoveAll(group); err != nil {
				t.Fatal(err)
			}
			if tc.recreate {
				if err := os.Mkdir(group, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(group, "schemata"), []byte("L3:0=1\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Apply(1, bits.MustCBM(0, 6), tc.cores); err == nil {
				t.Fatal("Apply into a removed group should fail")
			}
			if err := b.Apply(1, bits.MustCBM(0, 6), tc.cores); err != nil {
				t.Fatalf("Apply after the failure: %v", err)
			}
			if got := readFile(t, filepath.Join(group, "schemata")); got != "L3:0=3f\n" {
				t.Errorf("recreated schemata holds %q", got)
			}
			if got, err := b.Schemata(1); err != nil || got != "L3:0=3f" {
				t.Errorf("Schemata(1)=%q,%v want L3:0=3f", got, err)
			}
			if got := readFile(t, filepath.Join(group, "cpus_list")); got != tc.wantCPUs {
				t.Errorf("recreated cpus_list holds %q, want %q", got, tc.wantCPUs)
			}
		})
	}
}

// BenchmarkApply reprograms one group with masks alternating in width,
// so the line alternates in length: the in-place rewrite's shrinking
// and growing paths both run.
func BenchmarkApply(b *testing.B) {
	dir := b.TempDir()
	if err := CreateMockTree(dir, 20, 16, 18); err != nil {
		b.Fatal(err)
	}
	be, err := NewBackend(dir)
	if err != nil {
		b.Fatal(err)
	}
	masks := []bits.CBM{bits.MustCBM(10, 10), bits.MustCBM(0, 2)}
	cores := []int{0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.Apply(1, masks[i%len(masks)], cores); err != nil {
			b.Fatal(err)
		}
	}
}
