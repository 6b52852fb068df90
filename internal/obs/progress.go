package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// progressPeriod is how often a progress line is repainted at most.
const progressPeriod = 100 * time.Millisecond

// painter paints a live progress line, "label: done/total (pct%)
// elapsed Xs eta Ys", carriage-return repainted on w: at most every
// progressPeriod, and always when done reaches total.  Workers report
// concurrently, so a count that arrives behind one already painted is
// not painted.
type painter struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	start time.Time
	last  time.Time
	done  int
	total int
	width int
}

func newPainter(w io.Writer, label string) *painter {
	return &painter{w: w, label: label, start: time.Now()}
}

// step takes done of total jobs complete and repaints the line when due.
func (p *painter) step(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if done <= p.done {
		return
	}
	p.done, p.total = done, total
	now := time.Now()
	if done < total && now.Sub(p.last) < progressPeriod {
		return
	}
	p.last = now
	p.paint(now)
}

// finish repaints the last count and ends the line, if one was started.
func (p *painter) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.total == 0 {
		return
	}
	p.paint(time.Now())
	fmt.Fprintln(p.w)
}

// paint redraws the line, padded over a longer one before it (p.mu held).
func (p *painter) paint(now time.Time) {
	elapsed := now.Sub(p.start)
	line := fmt.Sprintf("%s: %d/%d (%.0f%%) elapsed %s", p.label, p.done, p.total,
		100*float64(p.done)/float64(p.total), elapsed.Round(time.Second))
	if p.done > 0 && p.done < p.total {
		eta := elapsed / time.Duration(p.done) * time.Duration(p.total-p.done)
		line += fmt.Sprintf(" eta %s", eta.Round(time.Second))
	}
	pad := p.width - len(line)
	p.width = max(p.width, len(line))
	fmt.Fprintf(p.w, "\r%s%s", line, strings.Repeat(" ", max(pad, 0)))
}
