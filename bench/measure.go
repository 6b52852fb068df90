package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's cumulative user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapMallocs is the cumulative count of heap objects allocated, read
// without stopping the world.
func heapMallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// block is one fixed-size unit of measured work: one scheme's replay of
// the trace (sim) or a fixed count of closed-loop requests (live).  A
// run measures a fixed number of blocks and reports medians over them,
// so a burst of interference that hits fewer than half leaves the result
// alone.
type block struct {
	// group is the kind of work: the scheme's index on a sim workload,
	// 0 on a live one.  Blocks of one group do identical work.
	group   int
	reqs    int
	failed  int
	wallS   float64
	cpuS    float64
	mallocs uint64
	stealS  float64
	// Live blocks carry client-observed latency order statistics over
	// samples replies, and how many replies each tier served.
	p50us, p99us float64
	samples      int
	tierCount    [4]int
	// hitRatio is meaningful when hasHit is set (every live block; the
	// Hier-GD blocks of a sim workload).
	hitRatio float64
	hasHit   bool
}

// meter brackets one block's wall, CPU and allocation deltas.  The heap
// is collected first, outside the bracket, so every block starts from
// the same GC phase.
type meter struct {
	t0      time.Time
	cpu0    float64
	mallocs uint64
	steal0  float64
}

func startMeter() meter {
	runtime.GC()
	return meter{t0: time.Now(), cpu0: cpuSeconds(), mallocs: heapMallocs(), steal0: stealSeconds()}
}

func (m meter) stop(b *block) {
	b.wallS = time.Since(m.t0).Seconds()
	b.cpuS = cpuSeconds() - m.cpu0
	b.mallocs = heapMallocs() - m.mallocs
	b.stealS = stealSeconds() - m.steal0
}

// stealSeconds is the time the hypervisor ran something else while this
// machine's CPUs had work, summed over CPUs (the 8th value of the cpu
// line of /proc/stat, in 1/100 s); 0 where it is not reported.
func stealSeconds() float64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// blocksFor is how many blocks per group a run of the given length
// measures.  The count follows from the arguments, never from the
// clock, so the same seed and --seconds always do the same work;
// perSecond is frozen per workload so that the work takes about
// --seconds on the 2-core reference box.
func blocksFor(seconds, perSecond float64, atLeast int) int {
	n := int(math.Round(seconds * perSecond))
	if n < atLeast {
		n = atLeast
	}
	return n
}

// overrun is how far past --seconds a run may go before it stops
// measuring.  On the reference box the block count ends a run; the clock
// ends it only when the host is so disturbed that the fixed work would
// blow the time an acceptance run is allowed, and the record says so.
const overrun = 1.25

// runClock decides, before block i of n, whether the run goes on.
type runClock struct {
	n        int
	deadline time.Time
}

func startClock(n int, seconds float64) runClock {
	return runClock{n: n, deadline: time.Now().Add(time.Duration(overrun * seconds * float64(time.Second)))}
}

func (c runClock) more(i int) bool {
	return i < c.n && (i < minBlocks || time.Now().Before(c.deadline))
}

// reduceBlocks turns the measured blocks into the end-to-end metrics
// every workload reports (setup_s and peak_rss_mb are added elsewhere).
// Each group is reduced to its median block, and the groups are summed:
// the result is one pass over every kind of work, each at its median
// cost.
func reduceBlocks(blocks []block) map[string]float64 {
	byGroup := map[int][]block{}
	for _, b := range blocks {
		byGroup[b.group] = append(byGroup[b.group], b)
	}
	col := func(bs []block, f func(block) float64) []float64 {
		out := make([]float64, len(bs))
		for i, b := range bs {
			out[i] = f(b)
		}
		return out
	}
	var reqs, wall, cpu, mallocs float64
	var costUs, hits []float64 // per group: median wall per request
	for _, bs := range byGroup {
		w := median(col(bs, func(b block) float64 { return b.wallS }))
		reqs += float64(bs[0].reqs)
		wall += w
		cpu += median(col(bs, func(b block) float64 { return b.cpuS }))
		mallocs += median(col(bs, func(b block) float64 { return float64(b.mallocs) }))
		costUs = append(costUs, w*1e6/float64(bs[0].reqs))
	}
	for _, b := range blocks {
		if b.hasHit {
			hits = append(hits, b.hitRatio)
		}
	}
	m := map[string]float64{
		"req_per_s":      reqs / wall,
		"cpu_us_per_req": cpu * 1e6 / reqs,
		"allocs_per_req": mallocs / reqs,
		"hit_ratio":      mean(hits), // blocks are equal-sized: the share over all of them
	}
	if len(byGroup) == 1 {
		m["p50_us"] = median(col(blocks, func(b block) float64 { return b.p50us }))
		m["p99_us"] = median(col(blocks, func(b block) float64 { return b.p99us }))
	} else {
		// No client on a sim workload: the samples are the schemes.
		m["p50_us"] = percentile(append([]float64(nil), costUs...), 50)
		m["p99_us"] = percentile(costUs, 99)
	}
	return m
}

// canaryNs times a fixed pure-Go loop that does the same work on every
// run: dependent loads at scattered places in 16 MiB, more than this
// host's private caches hold.  A slow canary means a slow or shared host
// (a neighbour taking CPU, cache or memory bandwidth), not slow code
// under test; a loop that stays in registers does not notice the last
// two.  Best of three, per load.
func canaryNs() float64 {
	const loads = 1 << 18
	buf := make([]uint32, 1<<22)
	for i := range buf {
		buf[i] = uint32(i)*2654435761 + 12345
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint32(rep)
		for i := 0; i < loads; i++ {
			x = buf[x&(1<<22-1)] + uint32(i)
		}
		runtime.KeepAlive(x)
		ns := float64(time.Since(start).Nanoseconds()) / loads
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// gcSnapshot reads total GC pause and current heap for the runtime.*
// layer metrics.
func gcSnapshot() (pauseMs, heapMiB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e6, float64(ms.HeapAlloc) / (1 << 20)
}
