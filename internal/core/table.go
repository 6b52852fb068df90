package core

import (
	"fmt"
	"slices"
	"strings"
)

// FormatTable renders a figure as the aligned text table the CLI
// prints: one row per cache size, one column per series, cells in
// percent latency gain (mean ±95% CI half-width for replicated runs).
func FormatTable(f *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	rows := f.cells()
	width := 12
	for _, label := range rows[0][1:] {
		width = max(width, len(label)+2)
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-10s", row[0])
		for _, c := range row[1:] {
			fmt.Fprintf(&b, "%*s", width, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// clairvoyant labels the FC and FC-EC columns of the paper's tables
// until FC fills on a miss (ROADMAP B1): they place each window for the
// requests ahead (DESIGN.md §2.4), so a cache can hold an object before
// any client has asked for it.
const clairvoyant = " [clairvoyant placement (A1)]"

// FormatMarkdown renders a figure as a GitHub-flavoured markdown table
// for results/figures.md, cells as in FormatTable.
func FormatMarkdown(f *Figure) string {
	rows := f.cells()
	for i, label := range rows[0] {
		if scheme, _, _ := strings.Cut(label, " "); scheme == "FC" || scheme == "FC-EC" {
			rows[0][i] += clairvoyant
		}
	}
	var b strings.Builder
	for i, row := range rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		if i == 0 {
			b.WriteString("|" + strings.Repeat("---|", len(row)) + "\n")
		}
	}
	return b.String()
}

// cells lays a figure out as a header (cache% and the series labels)
// and one row per cache fraction of its longest series.  A cell is the
// series' gain in percent, with its CI half-width when any point of the
// figure has one (a replicated run), or "-" past the end of a shorter
// series.
func (f *Figure) cells() [][]string {
	var longest []Point
	ci := false
	head := []string{"cache%"}
	for _, s := range f.Series {
		head = append(head, s.Label)
		if len(s.Points) > len(longest) {
			longest = s.Points
		}
		ci = ci || slices.ContainsFunc(s.Points, func(p Point) bool { return p.GainCI > 0 })
	}
	rows := [][]string{head}
	for i, x := range longest {
		row := []string{fmt.Sprintf("%.0f", x.CacheFrac*100)}
		for _, s := range f.Series {
			switch {
			case i >= len(s.Points):
				row = append(row, "-")
			case ci:
				row = append(row, fmt.Sprintf("%.1f ±%.1f", s.Points[i].Gain*100, s.Points[i].GainCI*100))
			default:
				row = append(row, fmt.Sprintf("%.1f", s.Points[i].Gain*100))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// SeriesByLabel finds a series by its label.
func (f *Figure) SeriesByLabel(label string) (Series, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}
