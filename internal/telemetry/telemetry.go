// Package telemetry collects experiment output: time series (for the
// paper's figures) and text tables (for its tables), with plain-text
// and CSV rendering, plus the small statistics the evaluation reports
// (mean, geometric mean, percentiles).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points in recording order.
type Series struct {
	Name   string
	Points []Point
}

// Last returns the most recent point (zero Point when empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Ys returns the Y values in order.
func (s *Series) Ys() []float64 {
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return ys
}

// Recorder accumulates named series.
type Recorder struct {
	order  []string
	series map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Record appends a point to the named series, creating it on first use.
func (r *Recorder) Record(name string, x, y float64) {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Series returns a series by name.
func (r *Recorder) Series(name string) (*Series, bool) {
	s, ok := r.series[name]
	return s, ok
}

// Names returns series names in first-recorded order.
func (r *Recorder) Names() []string { return append([]string(nil), r.order...) }

// WriteCSV renders all series as a wide CSV: one row per distinct X (in
// ascending order), one column per series; missing cells are empty.
func (r *Recorder) WriteCSV(w io.Writer) error {
	xsSet := map[float64]bool{}
	for _, s := range r.series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	cols := make([]map[float64]float64, len(r.order))
	for i, name := range r.order {
		cols[i] = make(map[float64]float64)
		for _, p := range r.series[name].Points {
			cols[i][p.X] = p.Y
		}
	}
	if _, err := fmt.Fprintf(w, "x,%s\n", strings.Join(r.order, ",")); err != nil {
		return err
	}
	for _, x := range xs {
		cells := make([]string, 0, len(r.order)+1)
		cells = append(cells, trimFloat(x))
		for i := range r.order {
			if y, ok := cols[i][x]; ok {
				cells = append(cells, trimFloat(y))
			} else {
				cells = append(cells, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeMetric maps a series name onto [a-zA-Z0-9_:], the Prometheus
// metric-name alphabet.
func sanitizeMetric(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				out[i] = '_'
			}
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Table is a paper-style results table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned plain-text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(row []string) error {
		parts := make([]string, len(row))
		for i, cell := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (title omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean; inputs must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-
// rank on a sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// F formats a float with sensible precision for table cells.
func F(v float64) string { return trimFloat(v) }

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}
