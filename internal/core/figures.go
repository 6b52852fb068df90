package core

import (
	"fmt"

	"webcache/internal/netmodel"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// figures is the paper's §5.2 evaluation in paper order.  Every figure
// is the same experiment — latency gain over NC against proxy-cache
// size — and differs from the others only in the curves it sweeps.
var figures = []struct {
	id, title string
	curves    func(o Options) ([]curve, error)
}{
	// 2(a), "Latency Gain vs. Proxy Cache Size": all seven schemes
	// against the NC baseline on the synthetic workload.
	{"2a", "Latency gain vs. proxy cache size (synthetic)", func(o Options) ([]curve, error) {
		tr, err := synthetic(o, 0)
		if err != nil {
			return nil, err
		}
		return schemeCurves(tr, sim.Config{}, paperSchemes), nil
	}},
	// 2(b): the same sweep on the reconstructed UCB Home-IP trace.
	{"2b", "Latency gain vs. proxy cache size (UCB-like trace)", func(o Options) ([]curve, error) {
		// The UCB trace is 9.2M requests at scale 1; apply a further
		// factor so figure 2b is comparable in cost to 2a.
		tr, err := prowgen.GenerateUCB(prowgen.UCBConfig{
			Scale: o.Scale * float64(prowgen.DefaultNumRequests) / float64(prowgen.UCBRequests),
			Seed:  o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return schemeCurves(tr, sim.Config{}, paperSchemes), nil
	}},
	// 3, "Latency Gain vs. Object Popularity Distribution": the FC-EC,
	// FC, Hier-GD and SC-EC panels with Zipf α ∈ {0.5, 0.7, 1.0}.
	{"3", "Latency gain vs. object popularity (Zipf alpha)", func(o Options) ([]curve, error) {
		return panelCurves([]float64{0.5, 0.7, 1.0},
			func(alpha float64) (*trace.Trace, error) {
				return paperTrace(o.Scale, o.Seed, alpha, prowgen.DefaultStackFrac, 0)
			},
			func(s sim.Scheme, alpha float64) string { return fmt.Sprintf("%s alpha=%.1f", s, alpha) })
	}},
	// 4, "Latency Gain vs. Temporal Locality": the same panels with LRU
	// stack size ∈ {5%, 20%, 60%}.
	{"4", "Latency gain vs. temporal locality (LRU stack size)", func(o Options) ([]curve, error) {
		return panelCurves([]float64{0.05, 0.20, 0.60},
			func(stack float64) (*trace.Trace, error) {
				return paperTrace(o.Scale, o.Seed, prowgen.DefaultAlpha, stack, 0)
			},
			func(s sim.Scheme, stack float64) string { return fmt.Sprintf("%s stack=%.0f%%", s, stack*100) })
	}},
	// 5(a): Hier-GD's sensitivity to the proxy-to-proxy latency,
	// Ts/Tc ∈ {2, 5, 10}.  The NC baseline shares each network model.
	{"5a", "Hier-GD latency gain vs. proxy-to-proxy latency (Ts/Tc)", func(o Options) ([]curve, error) {
		return netCurves(o, "Ts/Tc=%.0f", []float64{2, 5, 10},
			func(r float64) netmodel.Params { return netmodel.Params{ServerProxyRatio: r} })
	}},
	// 5(b): Hier-GD's sensitivity to the client-to-proxy latency,
	// Ts/Tl ∈ {5, 10, 20}.
	{"5b", "Hier-GD latency gain vs. client-to-proxy latency (Ts/Tl)", func(o Options) ([]curve, error) {
		return netCurves(o, "Ts/Tl=%.0f", []float64{5, 10, 20},
			func(r float64) netmodel.Params { return netmodel.Params{ServerClientRatio: r} })
	}},
	// 5(c): the client cluster size — Hier-GD with 100..1000 client
	// caches against a fixed 1000-client mapping, plus SC and FC
	// reference curves.
	{"5c", "Hier-GD latency gain vs. client cluster size", func(o Options) ([]curve, error) {
		const mapping = 1000
		// The trace must populate every one of the 2 x 1000 mapped clients.
		tr, err := synthetic(o, 2*mapping)
		if err != nil {
			return nil, err
		}
		out := schemeCurves(tr, sim.Config{ClientsPerCluster: mapping}, []sim.Scheme{sim.SC, sim.FC})
		for _, n := range []int{100, 400, 800, 1000} {
			out = append(out, curve{label: fmt.Sprintf("Hier-GD (%d)", n), tr: tr,
				cfg: sim.Config{Scheme: sim.HierGD, ClientsPerCluster: mapping, P2PClientCaches: n}})
		}
		return out, nil
	}},
	// 5(d): the proxy cluster size — Hier-GD with 2, 5 and 10 proxies
	// (every pair of proxies at the same Tc, as the paper assumes).
	{"5d", "Hier-GD latency gain vs. proxy cluster size", func(o Options) ([]curve, error) {
		// 10 proxies x 100 clients: the trace must cover 1000 clients.
		tr, err := synthetic(o, 1000)
		if err != nil {
			return nil, err
		}
		var out []curve
		for _, n := range []int{2, 5, 10} {
			out = append(out, curve{label: fmt.Sprintf("%d proxies", n), tr: tr,
				cfg: sim.Config{Scheme: sim.HierGD, NumProxies: n}})
		}
		return out, nil
	}},
}

// paperSchemes are the six schemes Figure 2 plots against NC.
var paperSchemes = []sim.Scheme{sim.SC, sim.FC, sim.NCEC, sim.SCEC, sim.FCEC, sim.HierGD}

// synthetic is the paper's default workload at the run's scale and seed.
func synthetic(o Options, clients int) (*trace.Trace, error) {
	return paperTrace(o.Scale, o.Seed, prowgen.DefaultAlpha, prowgen.DefaultStackFrac, clients)
}

// panelCurves builds Figures 3 and 4: one panel per scheme, one curve
// per workload parameter, each parameter's trace generated once and
// shared by every panel.
func panelCurves(params []float64, gen func(float64) (*trace.Trace, error), label func(sim.Scheme, float64) string) ([]curve, error) {
	trs := make([]*trace.Trace, len(params))
	for i, p := range params {
		tr, err := gen(p)
		if err != nil {
			return nil, err
		}
		trs[i] = tr
	}
	var out []curve
	for _, s := range []sim.Scheme{sim.FCEC, sim.FC, sim.HierGD, sim.SCEC} {
		for i, p := range params {
			out = append(out, curve{label: label(s, p), tr: trs[i], cfg: sim.Config{Scheme: s}})
		}
	}
	return out, nil
}

// netCurves builds Figures 5(a) and 5(b): Hier-GD on the synthetic
// workload under each network model, labelled by the swept ratio.
func netCurves(o Options, label string, ratios []float64, params func(float64) netmodel.Params) ([]curve, error) {
	tr, err := synthetic(o, 0)
	if err != nil {
		return nil, err
	}
	out := make([]curve, len(ratios))
	for i, r := range ratios {
		net, err := netmodel.New(params(r))
		if err != nil {
			return nil, err
		}
		out[i] = curve{label: fmt.Sprintf(label, r), tr: tr, cfg: sim.Config{Scheme: sim.HierGD, Net: net}}
	}
	return out, nil
}
