package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webcache/internal/obs/cluster"
)

// runTop is the live terminal dashboard: it scrapes every member's
// /metrics itself (package cluster) and redraws the cluster view each
// interval — cluster hit ratio, per-member throughput and resident
// objects, per-class SLO burn rates, and breaker states.
//
//	hiergdd top -members a=http://h1:8080,b=http://h2:8080 -interval 2s
//
// -once renders a single frame without clearing the screen, for
// scripts and transcripts.
func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	members := fs.String("members", "", `proxies to watch as "name=url,..." (name optional)`)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "render one frame and exit without clearing the screen")
	fs.Parse(args)
	if *members == "" {
		return fmt.Errorf("top: -members required")
	}
	ms, err := cluster.ParseMembers(*members)
	if err != nil {
		return err
	}
	agg := cluster.New(ms)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var prev *cluster.Snapshot
	for {
		cur := agg.ScrapeOnce(ctx)
		frame := renderDashboard(prev, cur)
		if *once {
			fmt.Print(frame)
			return nil
		}
		// Home the cursor and clear below: a flicker-free full redraw.
		fmt.Print("\x1b[H\x1b[J" + frame)
		prev = cur
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-time.After(*interval):
		}
	}
}

// renderDashboard renders one dashboard frame from the current
// cluster snapshot; prev (nil on the first frame) supplies the
// baseline for per-member throughput deltas.  Pure text in, text out
// — the unit tests feed it snapshots from a real loopback mesh.
func renderDashboard(prev, cur *cluster.Snapshot) string {
	var b strings.Builder
	up := 0
	for _, m := range cur.Members {
		if m.Up {
			up++
		}
	}
	fmt.Fprintf(&b, "hiergdd top — %d/%d members up — %s\n",
		up, len(cur.Members), cur.At.Format("15:04:05"))
	fmt.Fprintf(&b, "cluster: %.0f requests, hit ratio %5.1f%%, %.0f origin fetches\n\n",
		cur.Requests, 100*cur.HitRatio, cur.OriginFetches)

	// Per-member rows, with request throughput measured between frames.
	elapsed := 0.0
	prevReq := map[string]float64{}
	if prev != nil {
		elapsed = cur.At.Sub(prev.At).Seconds()
		for _, m := range prev.Members {
			prevReq[m.Name] = m.Requests
		}
	}
	fmt.Fprintf(&b, "%-12s %-6s %10s %8s %7s %9s %8s\n",
		"member", "state", "requests", "req/s", "hit", "objects", "brk.open")
	for _, m := range cur.Members {
		state := "up"
		switch {
		case !m.Up && m.Stale:
			state = "stale"
		case !m.Up:
			state = "down"
		}
		rate := "-"
		if prev != nil && m.Up && elapsed > 0 {
			if r, ok := prevReq[m.Name]; ok {
				rate = fmt.Sprintf("%.0f", (m.Requests-r)/elapsed)
			}
		}
		fmt.Fprintf(&b, "%-12s %-6s %10.0f %8s %6.1f%% %9.0f %8.0f\n",
			m.Name, state, m.Requests, rate, 100*m.HitRatio, m.Objects, m.BreakerOpens)
		if m.Err != "" {
			fmt.Fprintf(&b, "%-12s   last error: %s\n", "", m.Err)
		}
	}

	// Per-class SLO burn rates (max across members; paging if any pages).
	if len(cur.SLO) > 0 {
		fmt.Fprintf(&b, "\n%-14s %10s %8s %10s %10s %7s\n",
			"slo class", "good", "bad", "burn.fast", "burn.slow", "paging")
		for _, c := range cur.SLO {
			paging := "-"
			if c.Paging {
				paging = "PAGE"
			}
			fmt.Fprintf(&b, "%-14s %10.0f %8.0f %10.2f %10.2f %7s\n",
				c.Name, c.Good, c.Bad, c.FastBurn, c.SlowBurn, paging)
		}
	}
	return b.String()
}
