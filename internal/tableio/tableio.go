// Package tableio renders experiment results as aligned plain-text tables
// and simple XY series listings, the output format of cmd/estibench (every
// artifact at once: cmd/estibench/testdata/exp-all.golden).
package tableio

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells (stringifying each with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", max(0, pad)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Ms formats seconds as milliseconds.
func Ms(seconds float64) string {
	return fmt.Sprintf("%.1f", seconds*1000)
}

// Pct formats a 0..1 ratio as a percentage.
func Pct(frac float64) string {
	return fmt.Sprintf("%.0f%%", frac*100)
}

// Pct1 formats a 0..1 ratio as a percentage with one decimal.
func Pct1(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// GB formats bytes as gigabytes.
func GB(bytes float64) string {
	return fmt.Sprintf("%.2f", bytes/1e9)
}
