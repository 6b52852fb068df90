package core

import (
	"fmt"
	"strings"
)

// FormatTable renders a figure as the aligned text table the CLI
// prints and EXPERIMENTS.md records: one row per cache size, one
// column per series, cells in percent latency gain.
func FormatTable(f *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	width := 12
	for _, s := range f.Series {
		if len(s.Label)+2 > width {
			width = len(s.Label) + 2
		}
	}
	fmt.Fprintf(&b, "%-10s", "cache%")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", width, s.Label)
	}
	b.WriteByte('\n')
	for i, x := range f.grid() {
		fmt.Fprintf(&b, "%-10.0f", x*100)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%*.1f", width, s.Points[i].Gain*100)
			} else {
				fmt.Fprintf(&b, "%*s", width, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatMarkdown renders a figure as a GitHub-flavoured markdown table
// for EXPERIMENTS.md.
func FormatMarkdown(f *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| cache%% |")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s |", s.Label)
	}
	b.WriteString("\n|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for i, x := range f.grid() {
		fmt.Fprintf(&b, "| %.0f |", x*100)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " %.1f |", s.Points[i].Gain*100)
			} else {
				fmt.Fprintf(&b, " - |")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// grid is the figure's x axis, the cache fractions of its longest
// series: every rendering has one row per fraction, and a shorter
// series leaves its missing rows empty.
func (f *Figure) grid() []float64 {
	var longest []Point
	for _, s := range f.Series {
		if len(s.Points) > len(longest) {
			longest = s.Points
		}
	}
	xs := make([]float64, len(longest))
	for i, p := range longest {
		xs[i] = p.CacheFrac
	}
	return xs
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

// GainAt returns the series' gain at the given cache fraction.
func (s Series) GainAt(frac float64) (float64, bool) {
	for _, p := range s.Points {
		if p.CacheFrac == frac {
			return p.Gain, true
		}
	}
	return 0, false
}
