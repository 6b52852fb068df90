// Package invariant is the simulator's shadow-oracle and
// invariant-enforcement subsystem.  Every stateful layer of the system
// — replacement policies, lookup directories, the Pastry ring, the P2P
// client clusters — can be wrapped in a checked variant that replays
// each operation against an independent shadow model and reports any
// disagreement as a Violation.
//
// The paper's entire evaluation is latency and memory *accounting*
// (hit ratios, latency gain over NC, directory memory, §4.2), so an
// accounting bug silently falsifies every reproduced figure.  The
// oracles here enforce:
//
//   - cache accounting: Used() == Σ entry sizes ≤ Capacity(), heap and
//     entry-map agreement, greedy-dual inflation monotonicity, finite
//     H values (CheckedPolicy);
//   - directory correctness: Exact-Directory is exact, the Bloom
//     directory has no false negatives — the §4.2 guarantee
//     (CheckedDirectory);
//   - ring correctness: RouteFrom lands on the ground-truth Owner and
//     leaf sets match the sorted ring on a stable overlay (CheckRing);
//   - P2P conservation: stores − evictions − lost-on-failure equals
//     the resident population (ClusterAccountant).
//
// Following the internal/obs pattern, a nil *Checker disables
// everything at zero cost: the Wrap* constructors return the unwrapped
// value and every Checker method is a no-op, so production paths stay
// unconditionally instrumented without a tax.  The simulator wires the
// subsystem behind Config.Check / webcachesim -check.
package invariant

import (
	"fmt"
	"strings"
	"sync"

	"webcache/internal/obs"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Layer names the subsystem ("cache", "directory", "ring", "p2p").
	Layer string
	// Rule names the broken invariant within the layer ("used-sum",
	// "no-false-negative", "route-owner", "conservation", ...).
	Rule string
	// Detail describes the concrete disagreement.
	Detail string
}

// String renders "layer/rule: detail".
func (v Violation) String() string {
	return fmt.Sprintf("%s/%s: %s", v.Layer, v.Rule, v.Detail)
}

// maxRecordedViolations bounds the violation list so a systematically
// broken run cannot exhaust memory; the counters keep exact totals.
const maxRecordedViolations = 64

// Checker aggregates invariant checks and their violations.  A nil
// *Checker ignores everything (the disabled state); construct one with
// New to enable checking.  All methods are safe for concurrent use so
// sweep workers may share one Checker.
type Checker struct {
	mu         sync.Mutex
	checks     int64
	violations []Violation
	dropped    int64 // violations beyond maxRecordedViolations

	// reg, when set, counts failures under check.violations.
	reg *obs.Registry
}

// New creates an enabled Checker.  reg may be nil; when set, the
// checker counts violations into it (see METRICS.md).
func New(reg *obs.Registry) *Checker {
	return &Checker{reg: reg}
}

// Enabled reports whether checking is on (c != nil).
func (c *Checker) Enabled() bool { return c != nil }

// observe counts n evaluated assertions.
func (c *Checker) observe(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.checks += n
	c.mu.Unlock()
}

// violatef records a violation.
func (c *Checker) violatef(layer, rule, format string, args ...any) {
	if c == nil {
		return
	}
	v := Violation{Layer: layer, Rule: rule, Detail: fmt.Sprintf(format, args...)}
	c.mu.Lock()
	if len(c.violations) < maxRecordedViolations {
		c.violations = append(c.violations, v)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
	if c.reg != nil {
		c.reg.Counter("check.violations").Inc()
	}
}

// assertf evaluates one assertion: cond must hold or a violation is
// recorded.  It returns cond so callers can chain.
func (c *Checker) assertf(cond bool, layer, rule, format string, args ...any) bool {
	if c == nil {
		return cond
	}
	c.observe(1)
	if !cond {
		c.violatef(layer, rule, format, args...)
	}
	return cond
}

// Checks returns the number of assertions evaluated (0 when disabled).
func (c *Checker) Checks() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checks
}

// ViolationCount returns the total number of violations observed,
// including any beyond the recorded cap.
func (c *Checker) ViolationCount() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.violations)) + c.dropped
}

// Violations snapshots the recorded violations (at most
// maxRecordedViolations; ViolationCount gives the exact total).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Err returns nil when every check passed, or an error summarizing the
// violations.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) == 0 {
		return nil
	}
	var b strings.Builder
	total := int64(len(c.violations)) + c.dropped
	fmt.Fprintf(&b, "invariant: %d violation(s) in %d checks:", total, c.checks)
	for _, v := range c.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if c.dropped > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", c.dropped)
	}
	return fmt.Errorf("%s", b.String())
}
