package resctrl

import (
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bits"
)

// FuzzParseCPUList checks the parser never panics and that successful
// parses round-trip through formatCPUList.
func FuzzParseCPUList(f *testing.F) {
	for _, seed := range []string{"", "0", "0-3", "0,2-4,9", "1-", "-1", "a", "3-1", "0,0,0", "63"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cores, err := ParseCPUList(s)
		if err != nil {
			return
		}
		for _, c := range cores {
			if c < 0 {
				t.Fatalf("negative core %d from %q", c, s)
			}
		}
		if len(cores) == 0 {
			return
		}
		reparsed, err := ParseCPUList(formatCPUList(cores))
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", s, err)
		}
		set := map[int]bool{}
		for _, c := range cores {
			set[c] = true
		}
		if len(reparsed) != len(set) {
			t.Fatalf("round trip of %q changed cardinality", s)
		}
	})
}

// FuzzApplyRoundTrip drives a sequence of Applies, valid and invalid,
// from fuzz bytes against a mock tree, four bytes per Apply: COS, mask
// start (bit 7 flips one bit inside the run), way count, and a core
// bitmap. An invalid Apply must error and leave every file and
// directory as it was; after a valid one every applied group's
// schemata holds exactly its last mask's line, as os.WriteFile would
// have left it.
func FuzzApplyRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 4, 0x03})
	f.Add([]byte{1, 10, 10, 0x01, 1, 0, 2, 0x01, 1, 0, 20, 0x02})
	f.Add([]byte{0, 0, 4, 1, 16, 0, 4, 1, 2, 15, 10, 1, 3, 0x80 | 2, 5, 1, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ways, closids, cpus = 20, 16, 8
		if len(data) > 4*64 {
			data = data[:4*64]
		}
		dir := t.TempDir()
		if err := CreateMockTree(dir, ways, closids, cpus); err != nil {
			t.Fatal(err)
		}
		b, err := NewBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Cleanup()
		last := map[int]bits.CBM{}
		for ; len(data) >= 4; data = data[4:] {
			cos := int(data[0] % (closids + 2))
			start, count := int(data[1]&0x1f), int(data[2]%24)
			mask := bits.CBM((uint64(1)<<count - 1) << start)
			if data[1]&0x80 != 0 {
				mask ^= 1 << (start + count/2)
			}
			var cores []int
			for c := range cpus {
				if data[3]&(1<<c) != 0 {
					cores = append(cores, c)
				}
			}
			before := snapshotTree(t, dir)
			err := b.Apply(cos, mask, cores)
			if cos < 1 || cos >= closids || !mask.Valid(ways) {
				if err == nil {
					t.Fatalf("Apply(%d, %s) accepted an invalid input", cos, mask)
				}
				if !maps.Equal(before, snapshotTree(t, dir)) {
					t.Fatalf("rejected Apply(%d, %s) changed the tree", cos, mask)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Apply(%d, %s, %v): %v", cos, mask, cores, err)
			}
			last[cos] = mask
			for c, m := range last {
				data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("cos%d", c), "schemata"))
				if err != nil {
					t.Fatal(err)
				}
				if want := "L3:0=" + m.String() + "\n"; string(data) != want {
					t.Fatalf("cos%d/schemata holds %q, want %q", c, data, want)
				}
			}
		}
	})
}

// snapshotTree maps every path under root to its content; directories
// map to "/".
func snapshotTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			tree[path] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}
