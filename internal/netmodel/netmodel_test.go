package netmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestDefaultRatios(t *testing.T) {
	m := Default()
	if !almostEq(m.Ts/m.Tc, DefaultServerProxyRatio) {
		t.Errorf("Ts/Tc = %g, want %g", m.Ts/m.Tc, DefaultServerProxyRatio)
	}
	if !almostEq(m.Ts/m.Tl, DefaultServerClientRatio) {
		t.Errorf("Ts/Tl = %g, want %g", m.Ts/m.Tl, DefaultServerClientRatio)
	}
	if !almostEq(m.Tp2p/m.Tl, DefaultP2PClientRatio) {
		t.Errorf("Tp2p/Tl = %g, want %g", m.Tp2p/m.Tl, DefaultP2PClientRatio)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestNewZeroFieldsUseDefaults(t *testing.T) {
	m, err := New(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m != Default() {
		t.Errorf("New(Params{}) = %+v, want Default() %+v", m, Default())
	}
}

func TestNewCustomRatios(t *testing.T) {
	m, err := New(Params{Ts: 2, ServerProxyRatio: 4, ServerClientRatio: 8, P2PClientRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Tc, 0.5) || !almostEq(m.Tl, 0.25) || !almostEq(m.Tp2p, 0.5) {
		t.Errorf("unexpected model %+v", m)
	}
}

func TestNewRejectsNegativeRatios(t *testing.T) {
	for _, p := range []Params{
		{ServerProxyRatio: -1},
		{ServerClientRatio: -2},
		{P2PClientRatio: -0.5},
		{Ts: -1},
		{ServerProxyRatio: math.NaN()},
		{ServerClientRatio: math.NaN()},
		{P2PClientRatio: math.NaN()},
		{Ts: math.NaN()},
	} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) succeeded, want error", p)
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	m := Default()
	lp := m.Latency(SrcLocalProxy)
	p2p := m.Latency(SrcP2P)
	rp := m.Latency(SrcRemoteProxy)
	sv := m.Latency(SrcServer)
	if !(lp < p2p && p2p < rp && rp < sv) {
		t.Errorf("latency ordering violated: %g %g %g %g", lp, p2p, rp, sv)
	}
}

func TestLatencyComposition(t *testing.T) {
	m := Default()
	if got := m.Latency(SrcServer); !almostEq(got, m.Tl+m.Ts) {
		t.Errorf("server latency = %g, want Tl+Ts = %g", got, m.Tl+m.Ts)
	}
	if got := m.Latency(SrcP2P); !almostEq(got, m.Tl+m.Tp2p) {
		t.Errorf("p2p latency = %g, want Tl+Tp2p = %g", got, m.Tl+m.Tp2p)
	}
}

func TestLatencyHops(t *testing.T) {
	m := Default()
	m.PerHop = 0.01
	base := m.Latency(SrcP2P)
	if got := m.LatencyHops(SrcP2P, 1); !almostEq(got, base) {
		t.Errorf("1 hop should add nothing: %g vs %g", got, base)
	}
	if got := m.LatencyHops(SrcP2P, 4); !almostEq(got, base+3*0.01) {
		t.Errorf("4 hops = %g, want %g", got, base+0.03)
	}
	// Non-P2P sources ignore hops.
	if got := m.LatencyHops(SrcServer, 7); !almostEq(got, m.Latency(SrcServer)) {
		t.Errorf("server latency with hops = %g, want %g", got, m.Latency(SrcServer))
	}
}

func TestFetchCostExcludesClientLeg(t *testing.T) {
	m := Default()
	if got := m.FetchCost(SrcLocalProxy); got != 0 {
		t.Errorf("local fetch cost = %g, want 0", got)
	}
	if got := m.FetchCost(SrcServer); !almostEq(got, m.Ts) {
		t.Errorf("server fetch cost = %g, want %g", got, m.Ts)
	}
	if got := m.FetchCost(SrcRemoteProxy); !almostEq(got, m.Tc) {
		t.Errorf("remote fetch cost = %g, want %g", got, m.Tc)
	}
	if got := m.FetchCost(SrcP2P); !almostEq(got, m.Tp2p) {
		t.Errorf("p2p fetch cost = %g, want %g", got, m.Tp2p)
	}
}

func TestSourceStrings(t *testing.T) {
	want := map[Source]string{
		SrcLocalProxy:  "local-proxy",
		SrcP2P:         "p2p-cache",
		SrcRemoteProxy: "remote-proxy",
		SrcServer:      "server",
		Source(99):     "source(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestGain(t *testing.T) {
	cases := []struct{ lx, lnc, want float64 }{
		{1, 1, 0},
		{0.5, 1, 0.5},
		{0.2, 1, 0.8},
		{2, 1, -1}, // regression shows as negative gain
		{1, 0, 0},  // degenerate baseline
	}
	for _, c := range cases {
		if got := Gain(c.lx, c.lnc); !almostEq(got, c.want) {
			t.Errorf("Gain(%g, %g) = %g, want %g", c.lx, c.lnc, got, c.want)
		}
	}
}

func TestValidateCatchesInversions(t *testing.T) {
	m := Default()
	m.Tc = m.Ts * 2
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted Tc > Ts")
	}
	m = Default()
	m.Tp2p = m.Tl / 2
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted Tp2p < Tl")
	}
	m = Default()
	m.Tp2p = m.Ts * 2
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted Tp2p > Ts")
	}
	// Tc < Tp2p is allowed (the paper's Figure 5(b) space).
	m = Default()
	m.Tc = m.Tp2p / 2
	if err := m.Validate(); err != nil {
		t.Errorf("Validate rejected Tc < Tp2p: %v", err)
	}
	m = Default()
	m.Tl = -1
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted negative Tl")
	}
	m = Default()
	m.Tl = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted NaN Tl")
	}
}

// Property: for any positive ratios, the constructed model keeps the
// source-latency ordering local < p2p < remote < server whenever the
// ratios respect the paper's assumptions (Tc < Ts and Tp2p < Tc).
func TestPropLatencyOrdering(t *testing.T) {
	f := func(a, b, c uint8) bool {
		spr := 2 + float64(a%40)        // Ts/Tc in [2, 42)
		scr := spr + 1 + float64(b%40)  // Ts/Tl > Ts/Tc so Tl < Tc
		p2p := 1 + float64(c%100)/100.0 // Tp2p/Tl in [1, 2)
		m, err := New(Params{ServerProxyRatio: spr, ServerClientRatio: scr, P2PClientRatio: p2p})
		if err != nil {
			return false
		}
		if m.Validate() != nil {
			return false
		}
		// The full ordering only holds on the paper's default domain
		// Tp2p < Tc; judge that on the *constructed* model with a small
		// margin so exact ties (e.g. 1.7/34 vs 1/20, both 0.05) cannot
		// flip under floating-point rounding.
		if m.Tc-m.Tp2p <= 1e-9 {
			return true // outside the ordering's domain (Figure 5(b) space)
		}
		return m.Latency(SrcLocalProxy) < m.Latency(SrcP2P) &&
			m.Latency(SrcP2P) < m.Latency(SrcRemoteProxy) &&
			m.Latency(SrcRemoteProxy) < m.Latency(SrcServer)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Gain is monotone — lower scheme latency never yields a
// lower gain.
func TestPropGainMonotone(t *testing.T) {
	f := func(x, y uint16) bool {
		lnc := 1.0
		a := float64(x%1000) / 1000
		b := float64(y%1000) / 1000
		if a > b {
			a, b = b, a
		}
		return Gain(a, lnc) >= Gain(b, lnc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
