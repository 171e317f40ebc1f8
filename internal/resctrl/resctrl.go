// Package resctrl applies CAT classes of service through the Linux
// resctrl filesystem (kernel 4.10+), the successor to the pqos/msr
// interface the paper's prototype used (§4). On a machine with
// CONFIG_X86_CPU_RESCTRL and the filesystem mounted at /sys/fs/resctrl,
// this backend makes the dCat controller drive real hardware; tests and
// demos run it against a mock tree created by CreateMockTree.
//
// Layout used:
//
//	<root>/info/L3/cbm_mask     capacity mask ("fffff" for 20 ways)
//	<root>/info/L3/num_closids  class-of-service count
//	<root>/cos<N>/schemata      "L3:<domain>=<cbm>"
//	<root>/cos<N>/cpus_list     "0-1,4"
package resctrl

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bits"
)

// DefaultRoot is where the kernel mounts resctrl.
const DefaultRoot = "/sys/fs/resctrl"

// Backend drives a resctrl tree. It implements cat.Backend.
type Backend struct {
	root    string
	ways    int
	closids int
	domains []int // L3 cache domains (sockets) to program
	// groups maps each COS this backend created to its schemata file,
	// held open from the group's first Apply on so a mask change is
	// rewritten in place (see Apply). A nil file was closed after a
	// failed write: the next Apply re-creates the group and reopens it.
	groups map[int]*os.File
	line   []byte // Apply's schemata line, reused
	// cpus holds the CPUs (sorted, distinct) this backend last wrote to
	// each COS's cpus_list. The kernel keeps a CPU in one group only, so
	// a write forgets every other COS that listed one of its CPUs, and a
	// failed write forgets its own.
	cpus map[int][]int
}

// NewBackend opens a resctrl tree rooted at root.
func NewBackend(root string) (*Backend, error) {
	cbmStr, err := readTrimmed(filepath.Join(root, "info", "L3", "cbm_mask"))
	if err != nil {
		return nil, fmt.Errorf("resctrl: %s does not look like a resctrl mount: %w", root, err)
	}
	cbm, err := bits.ParseCBM(cbmStr)
	if err != nil {
		return nil, fmt.Errorf("resctrl: bad cbm_mask: %w", err)
	}
	if !cbm.Contiguous() || cbm.Lowest() != 0 {
		return nil, fmt.Errorf("resctrl: cbm_mask %q not a full mask", cbmStr)
	}
	closStr, err := readTrimmed(filepath.Join(root, "info", "L3", "num_closids"))
	if err != nil {
		return nil, fmt.Errorf("resctrl: %w", err)
	}
	closids, err := strconv.Atoi(closStr)
	if err != nil || closids < 1 {
		return nil, fmt.Errorf("resctrl: bad num_closids %q", closStr)
	}
	domains, err := parseDomains(filepath.Join(root, "schemata"))
	if err != nil {
		return nil, err
	}
	return &Backend{
		root:    root,
		ways:    cbm.Count(),
		closids: closids,
		domains: domains,
		groups:  make(map[int]*os.File),
		cpus:    make(map[int][]int),
	}, nil
}

// TotalWays implements cat.Backend.
func (b *Backend) TotalWays() int { return b.ways }

// MaxCOS returns the hardware class-of-service count.
func (b *Backend) MaxCOS() int { return b.closids }

// Root returns the tree root.
func (b *Backend) Root() string { return b.root }

// Apply implements cat.Backend: it materializes COS cos as a resctrl
// group, writes its schemata, and assigns the cores. cpus_list is
// rewritten only when the group's CPUs differ from what this backend
// last wrote there: a mask change alone leaves it untouched.
//
// The schemata file stays open between Applies and each line is
// rewritten in place: a write at offset 0, then a truncate to the
// line's length. The file ends up holding exactly the line, as an
// os.WriteFile would leave it, without the open, truncate-to-zero and
// close per write. The write fails when the path no longer names the
// held file (the group was removed under the backend). Any failed write
// closes and forgets the descriptor and the group's CPUs, so the next
// Apply re-creates the group directory, reopens the file and rewrites
// cpus_list.
func (b *Backend) Apply(cos int, mask bits.CBM, cores []int) error {
	if cos < 1 || cos >= b.closids {
		return fmt.Errorf("resctrl: COS %d out of range [1,%d)", cos, b.closids)
	}
	if !mask.Valid(b.ways) {
		return fmt.Errorf("resctrl: mask %s invalid for %d ways", mask, b.ways)
	}
	f := b.groups[cos]
	if f == nil {
		dir := b.groupDir(cos)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("resctrl: creating group: %w", err)
		}
		var err error
		f, err = os.OpenFile(filepath.Join(dir, "schemata"), os.O_WRONLY|os.O_CREATE, 0o644)
		b.groups[cos] = f // nil when the open failed: created, not yet open
		if err != nil {
			return fmt.Errorf("resctrl: opening schemata: %w", err)
		}
	}
	b.line = b.appendLine(b.line[:0], mask)
	if err := rewrite(f, b.line); err != nil {
		b.forget(cos)
		return fmt.Errorf("resctrl: writing schemata: %w", err)
	}
	// The caller's cores are usually the list last written, already
	// sorted: compare them as given before paying for a sorted copy.
	last, ok := b.cpus[cos]
	if ok && slices.Equal(last, cores) {
		return nil
	}
	cpus := sortedCPUs(cores)
	if ok && slices.Equal(last, cpus) {
		return nil
	}
	delete(b.cpus, cos)
	for other, list := range b.cpus {
		if overlap(list, cpus) {
			delete(b.cpus, other)
		}
	}
	if err := os.WriteFile(filepath.Join(b.groupDir(cos), "cpus_list"),
		[]byte(formatCPUList(cpus)+"\n"), 0o644); err != nil {
		b.forget(cos)
		return fmt.Errorf("resctrl: writing cpus_list: %w", err)
	}
	b.cpus[cos] = cpus
	return nil
}

// appendLine appends the schemata line programming mask into every L3
// domain: "L3:0=<cbm>;1=<cbm>\n", the mask in unpadded hex.
func (b *Backend) appendLine(dst []byte, mask bits.CBM) []byte {
	dst = append(dst, "L3:"...)
	for i, d := range b.domains {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = strconv.AppendInt(dst, int64(d), 10)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, uint64(mask), 16)
	}
	return append(dst, '\n')
}

// groupDir is the resctrl group directory of COS cos.
func (b *Backend) groupDir(cos int) string {
	return filepath.Join(b.root, fmt.Sprintf("cos%d", cos))
}

// rewrite replaces f's content with line in place, then checks that
// f's path still names f. On resctrl the kernel parses each write
// whole, ignores both its offset and the truncate (kernfs files keep no
// size), and fails a write into a removed group (ENODEV). On a regular
// file the truncate trims what a longer earlier line left behind, and
// a write into a removed group lands in the unlinked file, which the
// path check catches.
func rewrite(f *os.File, line []byte) error {
	if _, err := f.WriteAt(line, 0); err != nil {
		return err
	}
	if err := f.Truncate(int64(len(line))); err != nil {
		return err
	}
	held, err := f.Stat()
	if err != nil {
		return err
	}
	named, err := os.Stat(f.Name())
	if err != nil {
		return err
	}
	if !os.SameFile(held, named) {
		return fmt.Errorf("%s was replaced under the held descriptor", f.Name())
	}
	return nil
}

// forget closes cos's schemata descriptor after a failed write and
// drops the CPUs last written to its cpus_list, which a re-created
// group no longer holds.
func (b *Backend) forget(cos int) {
	b.groups[cos].Close()
	b.groups[cos] = nil
	delete(b.cpus, cos)
}

// overlap reports whether two sorted CPU lists share a CPU.
func overlap(a, b []int) bool {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			return true
		case a[0] < b[0]:
			a = a[1:]
		default:
			b = b[1:]
		}
	}
	return false
}

// Schemata reads back a group's current schemata line (diagnostics).
func (b *Backend) Schemata(cos int) (string, error) {
	if _, ok := b.groups[cos]; !ok {
		return "", fmt.Errorf("resctrl: COS %d never applied", cos)
	}
	return readTrimmed(filepath.Join(b.groupDir(cos), "schemata"))
}

// GroupOccupancy implements cat.OccupancyReader by summing the
// kernel's CMT counter for the group over every L3 domain it programs
// (<group>/mon_data/mon_L3_<dd>/llc_occupancy), as Apply programs one
// mask across all of them. Requires resctrl mounted with L3 monitoring
// (cqm) support; mock trees can seed the files with WriteMockOccupancy.
func (b *Backend) GroupOccupancy(cos int, cores []int) (uint64, error) {
	if _, ok := b.groups[cos]; !ok {
		return 0, fmt.Errorf("resctrl: COS %d never applied", cos)
	}
	dir := b.groupDir(cos)
	var sum uint64
	for _, d := range b.domains {
		raw, err := readTrimmed(filepath.Join(dir, "mon_data", monDir(d), "llc_occupancy"))
		if err != nil {
			return 0, fmt.Errorf("resctrl: no CMT data for COS %d: %w", cos, err)
		}
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("resctrl: bad llc_occupancy %q: %w", raw, err)
		}
		sum += v
	}
	return sum, nil
}

// monDir names an L3 domain's monitoring directory, e.g. "mon_L3_01".
func monDir(domain int) string { return fmt.Sprintf("mon_L3_%02d", domain) }

// WriteMockOccupancy seeds a mock tree's CMT counter for a group in L3
// domain 0, for tests and demos.
func WriteMockOccupancy(root string, cos int, bytes uint64) error {
	return writeMockOccupancy(root, cos, 0, bytes)
}

func writeMockOccupancy(root string, cos, domain int, bytes uint64) error {
	dir := filepath.Join(root, fmt.Sprintf("cos%d", cos), "mon_data", monDir(domain))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resctrl: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "llc_occupancy"),
		[]byte(strconv.FormatUint(bytes, 10)+"\n"), 0o644)
}

// Cleanup closes each group's held schemata and removes the group
// (resctrl groups are deleted by rmdir; the kernel then returns their
// cores to the root group).
func (b *Backend) Cleanup() error {
	var firstErr error
	for cos, f := range b.groups {
		if f != nil {
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("resctrl: closing cos%d/schemata: %w", cos, err)
			}
		}
		dir := b.groupDir(cos)
		if err := os.Remove(dir); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("resctrl: removing %s: %w", dir, err)
		}
		delete(b.groups, cos)
	}
	clear(b.cpus)
	return firstErr
}

// parseDomains extracts the L3 domain ids from a schemata file, e.g.
// "L3:0=fffff;1=fffff" -> [0 1].
func parseDomains(path string) ([]int, error) {
	content, err := readTrimmed(path)
	if err != nil {
		return nil, fmt.Errorf("resctrl: %w", err)
	}
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "L3:") {
			continue
		}
		var domains []int
		for _, part := range strings.Split(strings.TrimPrefix(line, "L3:"), ";") {
			id, _, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("resctrl: malformed schemata entry %q", part)
			}
			d, err := strconv.Atoi(strings.TrimSpace(id))
			if err != nil {
				return nil, fmt.Errorf("resctrl: bad domain id in %q", part)
			}
			domains = append(domains, d)
		}
		if len(domains) == 0 {
			return nil, fmt.Errorf("resctrl: no L3 domains in schemata")
		}
		return domains, nil
	}
	return nil, fmt.Errorf("resctrl: no L3 line in schemata")
}

// sortedCPUs returns cores sorted, without duplicates, in a new slice.
func sortedCPUs(cores []int) []int {
	sorted := slices.Clone(cores)
	slices.Sort(sorted)
	return slices.Compact(sorted)
}

// formatCPUList renders cores as a kernel cpus_list string, collapsing
// consecutive runs ("0-1,4").
func formatCPUList(cores []int) string {
	if len(cores) == 0 {
		return ""
	}
	sorted := sortedCPUs(cores)
	var sb strings.Builder
	start, prev := sorted[0], sorted[0]
	flush := func() {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&sb, "%d", start)
		} else {
			fmt.Fprintf(&sb, "%d-%d", start, prev)
		}
	}
	for _, c := range sorted[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return sb.String()
}

// ParseCPUList is the inverse of formatCPUList.
func ParseCPUList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var cores []int
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return nil, fmt.Errorf("resctrl: bad cpu list entry %q", part)
		}
		if !isRange {
			cores = append(cores, a)
			continue
		}
		z, err := strconv.Atoi(strings.TrimSpace(hi))
		if err != nil || z < a {
			return nil, fmt.Errorf("resctrl: bad cpu range %q", part)
		}
		for c := a; c <= z; c++ {
			cores = append(cores, c)
		}
	}
	return cores, nil
}

// CreateMockTree builds a minimal resctrl-compatible tree for tests and
// demos: info files, a root schemata with one L3 domain, and a root
// cpus_list.
func CreateMockTree(root string, ways, closids, cpus int) error {
	if ways < 1 || ways > bits.MaxWays || closids < 2 || cpus < 1 {
		return fmt.Errorf("resctrl: invalid mock geometry ways=%d closids=%d cpus=%d",
			ways, closids, cpus)
	}
	infoDir := filepath.Join(root, "info", "L3")
	if err := os.MkdirAll(infoDir, 0o755); err != nil {
		return fmt.Errorf("resctrl: %w", err)
	}
	full := bits.FullMask(ways)
	files := map[string]string{
		filepath.Join(infoDir, "cbm_mask"):     full.String() + "\n",
		filepath.Join(infoDir, "min_cbm_bits"): "1\n",
		filepath.Join(infoDir, "num_closids"):  strconv.Itoa(closids) + "\n",
		filepath.Join(root, "schemata"):        "L3:0=" + full.String() + "\n",
		filepath.Join(root, "cpus_list"):       fmt.Sprintf("0-%d\n", cpus-1),
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return fmt.Errorf("resctrl: %w", err)
		}
	}
	return nil
}

func readTrimmed(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(data)), nil
}
