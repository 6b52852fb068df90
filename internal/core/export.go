package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Figure export: JSON for programmatic consumers and gnuplot-ready
// .dat/.gp files that redraw the paper's plots.

// WriteJSON encodes the figure as indented JSON.
func WriteJSON(w io.Writer, f *Figure) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON decodes a figure written by WriteJSON.
func ReadJSON(r io.Reader) (*Figure, error) {
	var f Figure
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// figureHasCI reports whether any point carries a confidence interval
// (replicated runs).
func figureHasCI(f *Figure) bool {
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.GainCI > 0 {
				return true
			}
		}
	}
	return false
}

// WriteDAT writes the figure as a whitespace-separated table: column 1
// is the cache size in percent, then one gain column per series (and a
// CI column when any point carries one), with a header comment.
func WriteDAT(w io.Writer, f *Figure) error {
	hasCI := figureHasCI(f)
	fmt.Fprintf(w, "# Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "# cache%%")
	for _, s := range f.Series {
		fmt.Fprintf(w, "\t%q", s.Label)
		if hasCI {
			fmt.Fprintf(w, "\t%q", s.Label+" ci")
		}
	}
	fmt.Fprintln(w)
	for i, x := range f.grid() {
		fmt.Fprintf(w, "%.0f", x*100)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(w, "\t%.4f", 100*s.Points[i].Gain)
				if hasCI {
					fmt.Fprintf(w, "\t%.4f", 100*s.Points[i].GainCI)
				}
			} else {
				fmt.Fprintf(w, "\tnan")
				if hasCI {
					fmt.Fprintf(w, "\tnan")
				}
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ExportGnuplot writes fig<ID>.dat and fig<ID>.gp into dir; running
// `gnuplot fig<ID>.gp` renders fig<ID>.png in the paper's layout
// (latency gain vs. cache size, one curve per series).
func ExportGnuplot(dir string, f *Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := "fig" + strings.ReplaceAll(f.ID, "/", "_")
	datPath := filepath.Join(dir, base+".dat")
	df, err := os.Create(datPath)
	if err != nil {
		return err
	}
	if err := WriteDAT(df, f); err != nil {
		df.Close()
		return err
	}
	if err := df.Close(); err != nil {
		return err
	}

	var gp strings.Builder
	fmt.Fprintf(&gp, "set terminal pngcairo size 720,540\n")
	fmt.Fprintf(&gp, "set output %q\n", base+".png")
	fmt.Fprintf(&gp, "set title %q\n", fmt.Sprintf("Figure %s: %s", f.ID, f.Title))
	fmt.Fprintf(&gp, "set xlabel %q\nset ylabel %q\n", f.XLabel, f.YLabel)
	fmt.Fprintf(&gp, "set key outside right\nset grid\nset yrange [0:100]\n")
	fmt.Fprintf(&gp, "plot \\\n")
	stride := 1
	style := "linespoints"
	if figureHasCI(f) {
		stride = 2
		style = "yerrorlines"
	}
	for i, s := range f.Series {
		sep := ", \\\n"
		if i == len(f.Series)-1 {
			sep = "\n"
		}
		col := 2 + i*stride
		using := fmt.Sprintf("1:%d", col)
		if stride == 2 {
			using = fmt.Sprintf("1:%d:%d", col, col+1)
		}
		fmt.Fprintf(&gp, "  %q using %s with %s title %q%s",
			base+".dat", using, style, s.Label, sep)
	}
	return os.WriteFile(filepath.Join(dir, base+".gp"), []byte(gp.String()), 0o644)
}
