// Package netmodel defines the network latency model used by the
// cooperative caching simulator.
//
// The paper (§5.1) models the network with four average latencies:
//
//	Ts    proxy  -> origin Web server
//	Tc    proxy  -> cooperating proxy
//	Tl    client -> local proxy
//	Tp2p  client or proxy -> P2P client cache
//
// Latencies are normalized against Ts; the paper's defaults are
// Ts/Tc = 10, Ts/Tl = 20 and Tp2p/Tl = 1.4.  All simulator latency
// accounting goes through a Model so experiments can sweep the ratios
// (Figures 5(a) and 5(b)).
package netmodel

import (
	"errors"
	"fmt"
)

// Default ratio values from the paper (§5.1).
const (
	DefaultServerProxyRatio  = 10.0 // Ts / Tc
	DefaultServerClientRatio = 20.0 // Ts / Tl
	DefaultP2PClientRatio    = 1.4  // Tp2p / Tl
)

// Model holds the resolved latency parameters for one simulation run.
// The zero value is not useful; construct one with New or Default.
type Model struct {
	Ts   float64 // proxy -> origin server
	Tc   float64 // proxy -> cooperating proxy
	Tl   float64 // client -> local proxy
	Tp2p float64 // client/proxy -> P2P client cache

	// PerHop is the additional LAN latency charged per Pastry routing
	// hop beyond the first when HopAware accounting is enabled.  The
	// paper folds routing hops into the single average Tp2p; PerHop
	// lets ablation benches expose the hop count instead.
	PerHop float64
}

// Params selects a Model through the paper's normalized ratios.
type Params struct {
	Ts                float64 // absolute server latency; 1.0 if zero
	ServerProxyRatio  float64 // Ts/Tc; DefaultServerProxyRatio if zero
	ServerClientRatio float64 // Ts/Tl; DefaultServerClientRatio if zero
	P2PClientRatio    float64 // Tp2p/Tl; DefaultP2PClientRatio if zero
	PerHop            float64 // optional per-Pastry-hop LAN latency
}

// ErrBadRatio reports a non-positive latency ratio.
var ErrBadRatio = errors.New("netmodel: latency ratios must be positive")

// New resolves Params into a Model, applying the paper defaults for
// any zero field.
func New(p Params) (Model, error) {
	if p.Ts == 0 {
		p.Ts = 1.0
	}
	if p.ServerProxyRatio == 0 {
		p.ServerProxyRatio = DefaultServerProxyRatio
	}
	if p.ServerClientRatio == 0 {
		p.ServerClientRatio = DefaultServerClientRatio
	}
	if p.P2PClientRatio == 0 {
		p.P2PClientRatio = DefaultP2PClientRatio
	}
	// Written !(x > 0) so NaN, which fails every comparison, is rejected.
	if !(p.Ts > 0) || !(p.ServerProxyRatio > 0) || !(p.ServerClientRatio > 0) || !(p.P2PClientRatio > 0) {
		return Model{}, ErrBadRatio
	}
	tl := p.Ts / p.ServerClientRatio
	return Model{
		Ts:     p.Ts,
		Tc:     p.Ts / p.ServerProxyRatio,
		Tl:     tl,
		Tp2p:   tl * p.P2PClientRatio,
		PerHop: p.PerHop,
	}, nil
}

// Default returns the paper's default model: Ts=1, Ts/Tc=10, Ts/Tl=20,
// Tp2p/Tl=1.4.
func Default() Model {
	m, err := New(Params{})
	if err != nil {
		panic("netmodel: default parameters invalid: " + err.Error())
	}
	return m
}

// Source identifies where a request was ultimately served from.
type Source int

const (
	// SrcLocalProxy: hit in the client's local proxy cache.
	SrcLocalProxy Source = iota
	// SrcP2P: hit in the local proxy's own P2P client cache.
	SrcP2P
	// SrcRemoteProxy: served by a cooperating proxy (from its proxy
	// cache or, via the push mechanism, from its P2P client cache).
	SrcRemoteProxy
	// SrcServer: fetched from the origin Web server.
	SrcServer
	numSources
)

// String implements fmt.Stringer for metric labels.
func (s Source) String() string {
	switch s {
	case SrcLocalProxy:
		return "local-proxy"
	case SrcP2P:
		return "p2p-cache"
	case SrcRemoteProxy:
		return "remote-proxy"
	case SrcServer:
		return "server"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// NumSources is the number of distinct Source values, for metric arrays.
const NumSources = int(numSources)

// ParseSource is the inverse of Source.String, for consumers (the
// span-trace decomposition) that carry tiers as labels.
func ParseSource(label string) (Source, bool) {
	for s := SrcLocalProxy; s < Source(numSources); s++ {
		if s.String() == label {
			return s, true
		}
	}
	return 0, false
}

// Component names one of the model's four latency components, used to
// tag trace spans with the leg of the network they are charged under.
type Component string

const (
	CompTs   Component = "Ts"   // proxy -> origin server
	CompTc   Component = "Tc"   // proxy -> cooperating proxy
	CompTl   Component = "Tl"   // client -> local proxy
	CompTp2p Component = "Tp2p" // client/proxy -> P2P client cache
)

// ServeComponent returns the component the serving leg beyond the
// mandatory client->proxy hop is charged under; a local-proxy hit has
// no extra leg, so it maps to CompTl.
func ServeComponent(src Source) Component {
	switch src {
	case SrcLocalProxy:
		return CompTl
	case SrcP2P:
		return CompTp2p
	case SrcRemoteProxy:
		return CompTc
	case SrcServer:
		return CompTs
	default:
		return ""
	}
}

// Latency returns the end-to-end latency observed by the client for a
// request served from src.  Every request first travels client->proxy
// (Tl); the serving tier adds its own cost on a miss.
func (m Model) Latency(src Source) float64 {
	switch src {
	case SrcLocalProxy:
		return m.Tl
	case SrcP2P:
		return m.Tl + m.Tp2p
	case SrcRemoteProxy:
		return m.Tl + m.Tc
	case SrcServer:
		return m.Tl + m.Ts
	default:
		panic("netmodel: unknown source")
	}
}

// LatencyHops is Latency for a P2P fetch that took the given number of
// Pastry routing hops: hops beyond the first each add PerHop.  For
// sources other than SrcP2P it matches Latency.
func (m Model) LatencyHops(src Source, hops int) float64 {
	l := m.Latency(src)
	if src == SrcP2P && hops > 1 {
		l += float64(hops-1) * m.PerHop
	}
	return l
}

// FetchCost returns the cost the *proxy* pays to bring the object in
// from src, which is what the greedy-dual and cost-benefit policies use
// as the object's cost.  The client->proxy leg is excluded since it is
// paid on every request regardless.
func (m Model) FetchCost(src Source) float64 {
	switch src {
	case SrcLocalProxy:
		return 0
	case SrcP2P:
		return m.Tp2p
	case SrcRemoteProxy:
		return m.Tc
	case SrcServer:
		return m.Ts
	default:
		panic("netmodel: unknown source")
	}
}

// Validate reports whether the model satisfies the paper's hard
// ordering assumptions: positive latencies, Tl <= Tp2p (routing through
// the overlay cannot be cheaper than one proxy hop), and the server
// strictly slowest (Ts > Tc, Ts > Tp2p).  Tc vs Tp2p is deliberately
// unconstrained: the paper's default has Tp2p < Tc, but its Figure 5(b)
// sweep (Ts/Tl = 5 with Tp2p/Tl fixed at 1.4) produces Tp2p > Tc, so
// enforcing that ordering would reject the paper's own parameter space.
func (m Model) Validate() error {
	switch {
	case !(m.Tl > 0) || !(m.Tp2p > 0) || !(m.Tc > 0) || !(m.Ts > 0): // NaN fails > 0 too
		return fmt.Errorf("netmodel: latencies must be positive: %+v", m)
	case m.Tp2p < m.Tl:
		return fmt.Errorf("netmodel: Tp2p (%g) < Tl (%g)", m.Tp2p, m.Tl)
	case m.Ts <= m.Tc:
		return fmt.Errorf("netmodel: Ts (%g) <= Tc (%g)", m.Ts, m.Tc)
	case m.Ts <= m.Tp2p:
		return fmt.Errorf("netmodel: Ts (%g) <= Tp2p (%g)", m.Ts, m.Tp2p)
	}
	return nil
}

// Gain computes the paper's latency-gain metric: the relative reduction
// in average access latency of scheme X versus the NC baseline,
// 1 - Lx/Lnc, expressed as a fraction in [0, 1) for improvements.
func Gain(lx, lnc float64) float64 {
	if lnc == 0 {
		return 0
	}
	return 1 - lx/lnc
}
