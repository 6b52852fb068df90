package obs

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"

	"webcache/internal/trace"
)

// sessionFlags names the groups of observability flags a command binds.
type sessionFlags uint8

const (
	withMetrics  sessionFlags = 1 << iota // -metrics
	withManifest                          // -manifest
	withProfiles                          // -cpuprofile, -memprofile
	withProgress                          // -progress
	withTraces                            // -trace-out, -trace-sample
	withPprof                             // -pprof
)

// toolSpec is one command's observability wiring.
type toolSpec struct {
	flags sessionFlags
	// registry keeps the registry on without -metrics or -manifest: the
	// daemons serve it on /metrics, the chaos gate rolls the cluster up
	// through it.
	registry bool
	// origin and clock configure the span tracer.
	origin string
	clock  TraceClock
}

// tools is every command's wiring, by manifest tool name (which also
// names the registry).
var tools = map[string]toolSpec{
	"webcachesim":   {flags: withMetrics | withManifest | withProfiles | withProgress | withTraces, origin: "sim", clock: ClockVirtual},
	"overlay":       {flags: withMetrics | withManifest | withProfiles | withProgress},
	"tracegen":      {flags: withManifest | withProfiles},
	"hiergdd-proxy": {flags: withTraces | withPprof, registry: true, origin: "proxy", clock: ClockWall},
	"hiergdd-cache": {flags: withTraces | withPprof, registry: true, origin: "cache", clock: ClockWall},
	"hiergdd-bench": {flags: withManifest | withTraces | withPprof, origin: "loadgen", clock: ClockWall},
	"hiergdd-chaos": {flags: withManifest | withPprof, registry: true},
}

// Session is one command invocation's run record: the metric
// registry, the manifest, the span tracer, the profiles and the
// progress line, wired from the command's own flags.  NewSession binds
// the flags, Start opens what they ask for, Close writes it all out.
type Session struct {
	// Reg is the run's registry: nil (instrumentation off) unless
	// -metrics or -manifest asked for one or the command keeps it on.
	Reg *Registry
	// Tracer is the span tracer: nil unless a trace export was asked for.
	Tracer *Tracer

	tool string
	spec toolSpec

	metrics, progress                bool
	manifest, cpuprofile, memprofile string
	traceOut, pprofAddr              string
	traceSample                      int

	man     *Manifest
	stopCPU func()
	joined  []*Tracer
}

// NewSession binds the observability flags of the named command on fs.
// It panics on a tool with no entry in the wiring table.
func NewSession(fs *flag.FlagSet, tool string) *Session {
	spec, ok := tools[tool]
	if !ok {
		panic(fmt.Sprintf("obs: no session wiring for tool %q", tool))
	}
	s := &Session{tool: tool, spec: spec}
	if spec.flags&withMetrics != 0 {
		fs.BoolVar(&s.metrics, "metrics", false, "dump the run's metric registry to stderr on exit")
	}
	if spec.flags&withManifest != 0 {
		fs.StringVar(&s.manifest, "manifest", "", "write a run-manifest JSON document to this file (schema in METRICS.md)")
	}
	if spec.flags&withProfiles != 0 {
		fs.StringVar(&s.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		fs.StringVar(&s.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	}
	if spec.flags&withProgress != 0 {
		fs.BoolVar(&s.progress, "progress", false, "print live progress with ETA to stderr")
	}
	if spec.flags&withTraces != 0 {
		fs.StringVar(&s.traceOut, "trace-out", "", "write sampled request span traces as Chrome trace-event JSON to this file on exit")
		fs.IntVar(&s.traceSample, "trace-sample", 100, "head-sample 1 in N requests for span tracing (requests that arrive traced always join)")
	}
	if spec.flags&withPprof != 0 {
		fs.StringVar(&s.pprofAddr, "pprof", "", "expose net/http/pprof on this address")
	}
	return s
}

// Start opens what the parsed flags ask for: the registry, the
// manifest (its clock starts here), the span tracer, the CPU profile
// and the pprof listener.
func (s *Session) Start() error {
	if s.spec.registry || s.metrics || s.manifest != "" {
		s.Reg = NewRegistry(s.tool)
	}
	if s.manifest != "" {
		s.man = NewManifest(s.tool)
	}
	if s.traceOut != "" {
		s.Tracer = NewTracer(TracerOptions{Origin: s.spec.origin, SampleEvery: s.traceSample, Clock: s.spec.clock})
	}
	if s.cpuprofile != "" {
		f, err := os.Create(s.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: starting CPU profile: %w", err)
		}
		s.stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if s.pprofAddr != "" {
		// A taken port is reported, not fatal.
		go func() {
			err := http.ListenAndServe(s.pprofAddr, nil)
			fmt.Fprintf(os.Stderr, "%s: pprof listener: %v\n", s.tool, err)
		}()
		fmt.Printf("%s: pprof on http://%s/debug/pprof/\n", s.tool, s.pprofAddr)
	}
	return nil
}

// JoinTracer adds a join-only collector (it records only requests that
// arrive traced) whose traces export beside the session's own and whose
// totals fold into its registry: a bench hangs one off its daemons so
// every sampled request's hops land in the driver's export.  Nil when
// tracing is off.
func (s *Session) JoinTracer(origin string) *Tracer {
	if s.Tracer == nil {
		return nil
	}
	t := NewTracer(TracerOptions{Origin: origin, SampleEvery: SampleNever, Clock: ClockWall})
	s.joined = append(s.joined, t)
	return t
}

// SetConfig echoes a resolved option into the manifest (no-op without
// -manifest).
func (s *Session) SetConfig(key string, value any) {
	if s.man != nil {
		s.man.SetConfig(key, value)
	}
}

// SetNote attaches a tool-specific extra to the manifest.
func (s *Session) SetNote(key string, value any) {
	if s.man != nil {
		s.man.SetNote(key, value)
	}
}

// SetTrace records the workload's identity in the manifest — its
// content fingerprint and request count plus the command's extra
// fields — so two manifests compare only when they ran the same trace.
func (s *Session) SetTrace(tr *trace.Trace, extra map[string]any) {
	if s.man == nil {
		return
	}
	block := map[string]any{"fingerprint": trace.Fingerprint(tr), "requests": tr.Len()}
	for k, v := range extra {
		block[k] = v
	}
	s.man.Trace = block
}

// Progress returns a callback that paints the done/total count a
// caller passes it as a live progress line with ETA on stderr, and the
// func that ends the line; the callback is nil when -progress is off.
// It is safe for concurrent calls.
func (s *Session) Progress(label string) (step func(done, total int), finish func()) {
	if !s.progress {
		return nil, func() {}
	}
	p := newPainter(os.Stderr, label)
	return p.step, p.finish
}

// Close writes the run record: it stops the CPU profile, writes the
// heap profile, folds the tracers' totals into the registry, writes the
// span export, dumps the metrics, and writes the manifest and reads it
// back.  A failed step does not skip the rest; their errors are joined.
// Call it once, after all work is done: tracer totals accumulate.
func (s *Session) Close() error {
	var errs []error
	if s.stopCPU != nil {
		s.stopCPU()
	}
	if s.memprofile != "" {
		errs = append(errs, writeHeapProfile(s.memprofile))
	}
	if s.Tracer != nil {
		var all []SpanTrace
		for _, t := range append([]*Tracer{s.Tracer}, s.joined...) {
			t.PublishMetrics(s.Reg)
			all = append(all, t.Snapshots()...)
		}
		errs = append(errs, exportTraces(s.traceOut, all))
	}
	if s.metrics {
		fmt.Fprint(os.Stderr, s.Reg.String())
	}
	if s.man != nil {
		errs = append(errs, s.writeManifest())
	}
	return errors.Join(errs...)
}

// writeManifest seals the manifest, writes it, and reads it back
// through the validating reader so downstream tooling can rely on it.
func (s *Session) writeManifest() error {
	s.man.Finish(s.Reg)
	if err := s.man.WriteFile(s.manifest); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	if _, err := ReadManifestFile(s.manifest); err != nil {
		return fmt.Errorf("manifest self-check: %w", err)
	}
	fmt.Fprintf(os.Stderr, "manifest: %s\n", s.manifest)
	return nil
}

// writeHeapProfile garbage-collects (so the profile reflects live
// objects) and writes an allocation profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// exportTraces writes the traces to path as Chrome trace-event JSON.
func exportTraces(path string, traces []SpanTrace) error {
	f, err := os.Create(path)
	if err == nil {
		err = WriteChromeTraces(f, traces)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d records -> %s\n", len(traces), path)
	return nil
}
