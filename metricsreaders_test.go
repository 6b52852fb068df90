// Reader gate for METRICS.md: every row under "Metric namespaces"
// names, in its Read by column, a file and an identifier in it that
// read the metric, so a metric nobody reads shows up as a row without
// a reader and is deleted instead of exported forever.
package webcache_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	codeSpanRe = regexp.MustCompile("`([^`\n]+)`")
	goIdentRe  = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	// emitRe matches a line that registers or updates a metric: a
	// registry lookup followed by a write, or a name built by
	// concatenation.  Such a line is the emitter, not a reader.
	emitRe = regexp.MustCompile(`\.(Counter|Gauge|Timer|Histogram)\(("[^"]*"\s*\+|[^)]*\)\.(Add|Inc|Set|Start|Observe)\()`)
	// Outside tests, a registry lookup is a read only when a read
	// method follows it; any other lookup (a handle kept for writing)
	// registers the metric.
	lookupRe = regexp.MustCompile(`\.(Counter|Gauge|Timer|Histogram)\(`)
	readRe   = regexp.MustCompile(`\.(Counter|Gauge|Timer|Histogram)\("[^"]*"\)\.(Value|Quantile|Count|Total)\(`)
)

// readerRow is one table row of the namespaces section.
type readerRow struct {
	line    int
	metric  string // the Metric cell's name, braces unexpanded
	file    string // the Read by cell's path
	ident   string // the Read by cell's identifier
	rawCell string
}

// namespaceRows parses every table under "## Metric namespaces" up to
// the next level-2 heading.  A table without a Read by column fails.
func namespaceRows(t *testing.T, md string) []readerRow {
	t.Helper()
	lines := strings.Split(md, "\n")
	start := -1
	for i, ln := range lines {
		if ln == "## Metric namespaces" {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatal(`METRICS.md has no "## Metric namespaces" section`)
	}
	var rows []readerRow
	readBy := -1
	for i := start; i < len(lines) && !strings.HasPrefix(lines[i], "## "); i++ {
		ln := lines[i]
		if !strings.HasPrefix(ln, "|") {
			readBy = -1
			continue
		}
		cells := strings.Split(strings.Trim(ln, "|"), " | ")
		switch {
		case readBy < 0:
			for c, cell := range cells {
				if strings.TrimSpace(cell) == "Read by" {
					readBy = c
				}
			}
			if readBy < 0 {
				t.Errorf("METRICS.md:%d: a namespace table has no Read by column", i+1)
				readBy = len(cells) // skip its rows, reported once
			}
		case strings.HasPrefix(ln, "|---"):
		case readBy < len(cells):
			r := readerRow{line: i + 1, rawCell: cells[readBy]}
			if m := codeSpanRe.FindStringSubmatch(cells[0]); m != nil {
				r.metric = m[1]
			}
			spans := codeSpanRe.FindAllStringSubmatch(cells[readBy], -1)
			if len(spans) >= 2 {
				r.file, r.ident = spans[0][1], spans[1][1]
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// metricForms lists the names a reader may use for a row: the row's
// name up to its first brace or placeholder (the whole name, or the
// family prefix every member shares), dotted and in Prometheus form.
func metricForms(metric string) (dotted, prom string) {
	if i := strings.IndexAny(metric, "{<"); i >= 0 {
		metric = metric[:i]
	}
	return metric, strings.ReplaceAll(metric, ".", "_")
}

// codeLines drops // comments, so a metric named only in a comment
// does not count as read.
func codeLines(src string) []string {
	var out []string
	for _, ln := range strings.Split(src, "\n") {
		if i := strings.Index(ln, "//"); i >= 0 && !strings.Contains(ln[:i], `"`) {
			ln = ln[:i]
		}
		if strings.TrimSpace(ln) != "" {
			out = append(out, ln)
		}
	}
	return out
}

// mentions reports whether form occurs in ln as a whole name: the next
// character may not continue a dotted segment (a Prometheus form may be
// followed by an exposition suffix such as _seconds).
func mentions(ln, form string, prom bool) bool {
	for off := 0; ; {
		i := strings.Index(ln[off:], form)
		if i < 0 {
			return false
		}
		end := off + i + len(form)
		if strings.HasSuffix(form, ".") || strings.HasSuffix(form, "_") || end == len(ln) {
			return true
		}
		c := ln[end]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || !prom && c == '_') {
			return true
		}
		off = end
	}
}

// emits reports whether ln registers or updates a metric rather than
// reading one.
func emits(ln string, test bool) bool {
	return emitRe.MatchString(ln) || !test && lookupRe.MatchString(ln) && !readRe.MatchString(ln)
}

// readsMetric reports whether some code line of src names the row's
// metric, by any accepted form, on a line that does not emit it.
func readsMetric(src, metric string, test bool) bool {
	dotted, prom := metricForms(metric)
	for _, ln := range codeLines(src) {
		if !emits(ln, test) && (mentions(ln, dotted, false) || mentions(ln, prom, true)) {
			return true
		}
	}
	return false
}

// TestMetricsDocReaders holds each metric row of METRICS.md to the
// reader it names: a Go file in this repository (bench/ included) that
// names the metric outside comments and outside the lines that emit
// it, and an identifier that file declares or uses.
func TestMetricsDocReaders(t *testing.T) {
	md, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := namespaceRows(t, string(md))
	if len(rows) == 0 {
		t.Fatal("no metric rows under Metric namespaces")
	}
	for _, r := range rows {
		where := "METRICS.md:" + strconv.Itoa(r.line)
		switch {
		case r.metric == "":
			t.Errorf("%s: row has no metric name", where)
		case r.file == "" || r.ident == "":
			t.Errorf("%s: %s: Read by %q names no file and identifier", where, r.metric, r.rawCell)
		case filepath.Ext(r.file) != ".go":
			t.Errorf("%s: %s: reader %s is not Go code", where, r.metric, r.file)
		case !goIdentRe.MatchString(r.ident):
			t.Errorf("%s: %s: %q is not an identifier", where, r.metric, r.ident)
		default:
			src, err := os.ReadFile(filepath.FromSlash(r.file))
			if err != nil {
				t.Errorf("%s: %s: %v", where, r.metric, err)
				continue
			}
			if !readsMetric(string(src), r.metric, strings.HasSuffix(r.file, "_test.go")) {
				t.Errorf("%s: %s: %s does not read it outside comments and emitting lines", where, r.metric, r.file)
			}
			identRe := regexp.MustCompile(`\b` + r.ident + `\b`)
			if !identRe.MatchString(strings.Join(codeLines(string(src)), "\n")) {
				t.Errorf("%s: %s: %s has no identifier %s", where, r.metric, r.file, r.ident)
			}
		}
	}
}
