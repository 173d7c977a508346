package bench

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// Table is a rendered experiment artifact: one of the paper's tables,
// or the tabular form of one of its figures.
type Table struct {
	// ID is the experiment id from DESIGN.md (e.g. "fig1").
	ID string
	// Title is the human-readable caption.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, stringified.
	Rows [][]string
	// Notes carries caveats and paper-vs-measured commentary, printed
	// under the table.
	Notes []string
}

// Render writes an aligned ASCII table.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values (quotes are not needed
// for the harness's numeric/label content; commas in cells are replaced
// by semicolons defensively).
func (t *Table) CSV(w io.Writer) error {
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	cells := make([]string, 0, len(t.Header))
	for _, h := range t.Header {
		cells = append(cells, clean(h))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, clean(c))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// AsciiChart renders series as a crude log-x speedup chart, the
// harness's stand-in for the paper's figure plots. xs must be positive
// and shared across series.
func AsciiChart(w io.Writer, title string, xs []int, series map[string][]float64, height int) error {
	if height < 4 {
		height = 12
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	maxY := 0.0
	for _, ys := range series {
		for _, y := range ys {
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	names := slices.Sorted(maps.Keys(series)) // stable marker assignment
	markers := "*o+x#@%&"
	cols := len(xs)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols*6))
	}
	for si, name := range names {
		m := markers[si%len(markers)]
		for ci, y := range series[name] {
			if ci >= cols {
				break
			}
			row := height - 1 - int(y/maxY*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			col := ci*6 + 2
			grid[row][col] = m
		}
	}
	for r, rowBytes := range grid {
		label := "      "
		if r == 0 {
			label = fmt.Sprintf("%5.0f ", maxY)
		}
		if r == height-1 {
			label = "    0 "
		}
		if _, err := fmt.Fprintf(w, "%s|%s\n", label, string(rowBytes)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "      +%s\n       ", strings.Repeat("-", cols*6)); err != nil {
		return err
	}
	for _, x := range xs {
		fmt.Fprintf(w, "%-6d", x)
	}
	fmt.Fprintln(w)
	for si, name := range names {
		fmt.Fprintf(w, "       %c = %s\n", markers[si%len(markers)], name)
	}
	_, err := fmt.Fprintln(w)
	return err
}
