package experiments

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is a figure's data: one row per x-axis point, one column per
// series, exactly as the paper plots it.
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one x-axis point.
type Row struct {
	Label  string
	Values []float64
}

// Format renders the table for terminal output.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	// Each column is 16 wide, or wider when its name needs it, so names
	// stay apart and values stay right-aligned under them.
	widths := make([]int, len(t.Columns))
	fmt.Fprintf(&b, "%-18s", t.XLabel)
	for i, c := range t.Columns {
		widths[i] = max(16, utf8.RuneCountInString(c)+1)
		fmt.Fprintf(&b, "%*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s", r.Label)
		for i, v := range r.Values {
			w := 16
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%*.2f", w, v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
