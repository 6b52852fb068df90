package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Verdict is a claim's outcome under the rule of DESIGN.md §4.
type Verdict string

const (
	Holds      Verdict = "holds"      // every margin beats its bar in the claimed direction
	Fails      Verdict = "fails"      // a margin beats its bar against the claimed direction
	Unresolved Verdict = "unresolved" // a margin lies inside its bar, and none beats it the wrong way
)

// Ordering claims that series Above gains more than series Below in
// figure Fig.  The label "NC" names the baseline, whose gain is zero
// by definition.
type Ordering struct{ Fig, Above, Below string }

// Claim is one claim of the paper's §5.3, stated as orderings that
// must hold at every cache fraction of claimFracs.
type Claim struct {
	N         int
	Text      string
	Orderings []Ordering
}

// claimFracs are the small proxy caches, where the paper places its
// claims: 10% and 20% of the infinite cache size.
var claimFracs = []float64{0.1, 0.2}

// chains reads each chain "a > b > c" in figure fig as the orderings
// a > b and b > c.
func chains(fig string, cs ...string) []Ordering {
	var out []Ordering
	for _, c := range cs {
		labels := strings.Split(c, " > ")
		for i := 1; i < len(labels); i++ {
			out = append(out, Ordering{fig, labels[i-1], labels[i]})
		}
	}
	return out
}

// Claims are the five claims of §5.3.  The comment on each group of
// orderings is the paper's own statement of the figure they read.
var Claims = []Claim{
	// Figure 2(a): all curves decline as the proxy cache grows; FC/FC-EC
	// on top, each EC scheme above its base, Hier-GD above SC-EC/SC/NC-EC
	// and above FC when caches are small.  Figure 2(b): the same
	// ordering on the UCB trace, with much smaller absolute gains.
	{1, "Exploiting client caches helps, most at small proxy caches", slices.Concat(
		chains("2a", "NC-EC > NC", "SC-EC > SC", "FC-EC > FC"),
		chains("2b", "NC-EC > NC", "SC-EC > SC", "FC-EC > FC"),
	)},
	{2, "Hier-GD beats SC, NC-EC and SC-EC, and FC at small caches; FC-EC bounds it", slices.Concat(
		chains("2a", "FC-EC > Hier-GD > FC", "Hier-GD > SC-EC", "Hier-GD > NC-EC", "Hier-GD > SC"),
		chains("2b", "FC-EC > Hier-GD > FC", "Hier-GD > SC-EC", "Hier-GD > NC-EC", "Hier-GD > SC"),
	)},
	{3, "Gains grow with a larger working set, weaker locality and costlier remote fetches", slices.Concat(
		// Figure 3: smaller α (flatter popularity, larger working set)
		// gives larger gains — "cooperation is most effective when the
		// working set is large".
		chains("3",
			"FC-EC alpha=0.5 > FC-EC alpha=0.7 > FC-EC alpha=1.0",
			"FC alpha=0.5 > FC alpha=0.7 > FC alpha=1.0",
			"Hier-GD alpha=0.5 > Hier-GD alpha=0.7 > Hier-GD alpha=1.0",
			"SC-EC alpha=0.5 > SC-EC alpha=0.7 > SC-EC alpha=1.0"),
		// Figure 4: for FC, FC-EC and Hier-GD smaller LRU stacks (weaker
		// temporal locality) give larger gains; for SC/SC-EC/NC-EC the
		// direction flips with cache size.  Here locality helps
		// cooperation more than it helps the NC baseline, so this
		// ordering fails (TestFig4LocalityDecomposition).
		chains("4",
			"FC-EC stack=5% > FC-EC stack=20% > FC-EC stack=60%",
			"FC stack=5% > FC stack=20% > FC stack=60%",
			"Hier-GD stack=5% > Hier-GD stack=20% > Hier-GD stack=60%"),
		// Figure 5(a): the gain grows with Ts/Tc (remote proxies
		// relatively cheaper makes cooperation more valuable), most
		// visibly at small caches.
		chains("5a", "Ts/Tc=10 > Ts/Tc=5 > Ts/Tc=2"),
		// Figure 5(b): the gain grows with Ts/Tl.
		chains("5b", "Ts/Tl=20 > Ts/Tl=10 > Ts/Tl=5"),
	)},
	// Figure 5(c): more client caches (100 → 1000) give more gain,
	// particularly when proxy caches are small; SC and FC are shown for
	// reference.
	{4, "Larger client clusters help, most at small proxy caches",
		chains("5c", "Hier-GD (1000) > Hier-GD (800) > Hier-GD (400) > Hier-GD (100)")},
	// Figure 5(d): more proxies (2 → 10) give more gain, particularly at
	// small proxy caches.
	{5, "Larger proxy clusters help", chains("5d", "10 proxies > 5 proxies > 2 proxies")},
}

// Margin is one ordering read at one cache fraction: Diff is
// gain(Above) − gain(Below), and Bar the sum of the two points' 95% CI
// half-widths.
type Margin struct {
	Ordering
	Frac, Diff, Bar float64
}

// Verdict applies the rule to this one margin.
func (m Margin) Verdict() Verdict {
	switch {
	case m.Diff > m.Bar:
		return Holds
	case -m.Diff > m.Bar:
		return Fails
	}
	return Unresolved
}

func (m Margin) String() string {
	return fmt.Sprintf("%s > %s in %s at %.0f%%: %+.2f vs ±%.2f",
		m.Above, m.Below, m.Fig, m.Frac*100, m.Diff*100, m.Bar*100)
}

// at reads the ordering at cache fraction frac.  It is an error when
// the figure, either series or the point is missing.
func (o Ordering) at(figs []*Figure, frac float64) (Margin, error) {
	i := slices.IndexFunc(figs, func(f *Figure) bool { return f.ID == o.Fig })
	if i < 0 {
		return Margin{}, fmt.Errorf("core: figure %s is missing", o.Fig)
	}
	var p [2]Point
	for j, label := range []string{o.Above, o.Below} {
		if label == "NC" {
			continue
		}
		s, _ := figs[i].SeriesByLabel(label)
		k := slices.IndexFunc(s.Points, func(p Point) bool { return p.CacheFrac == frac })
		if k < 0 {
			return Margin{}, fmt.Errorf("core: figure %s has no %q point at %.0f%%", o.Fig, label, frac*100)
		}
		p[j] = s.Points[k]
	}
	return Margin{o, frac, p[0].Gain - p[1].Gain, p[0].GainCI + p[1].GainCI}, nil
}

// ClaimResult is a claim's verdict, the margin that decided it (the
// one failing by most, or else the one clearing by least) and how many
// of its margins clear their bars.
type ClaimResult struct {
	Claim
	Verdict        Verdict
	Decider        Margin
	Cleared, Total int
}

func (r ClaimResult) String() string {
	return fmt.Sprintf("%s, %d of %d clear; decided by %v", r.Verdict, r.Cleared, r.Total, r.Decider)
}

// EvaluateClaims reads every claim's orderings at claimFracs over figs
// and applies the verdict rule.  It is an error when a figure, series
// or point a claim reads is missing.
func EvaluateClaims(figs []*Figure) ([]ClaimResult, error) {
	out := make([]ClaimResult, len(Claims))
	for i, c := range Claims {
		r := ClaimResult{Claim: c, Verdict: Holds}
		var ms []Margin
		for _, o := range c.Orderings {
			for _, frac := range claimFracs {
				m, err := o.at(figs, frac)
				if err != nil {
					return nil, fmt.Errorf("claim (%d): %w", c.N, err)
				}
				ms = append(ms, m)
				if m.Verdict() == Holds {
					r.Cleared++
				}
			}
		}
		r.Total = len(ms)
		if r.Cleared < r.Total {
			r.Verdict = Unresolved
		}
		if slices.ContainsFunc(ms, func(m Margin) bool { return m.Verdict() == Fails }) {
			r.Verdict = Fails
		}
		slack := func(m Margin) float64 {
			if r.Verdict == Fails {
				return m.Diff + m.Bar
			}
			return m.Diff - m.Bar
		}
		r.Decider = slices.MinFunc(ms, func(a, b Margin) int { return cmp.Compare(slack(a), slack(b)) })
		out[i] = r
	}
	return out, nil
}
