package webcache_test

import (
	"bytes"
	"strings"
	"testing"

	"webcache"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
		NumRequests: 40_000,
		NumObjects:  2_000,
		NumClients:  200,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	hg, err := webcache.Run(tr, webcache.Config{Scheme: webcache.HierGD, ProxyCacheFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	g := webcache.Gain(hg.AvgLatency, nc.AvgLatency)
	if g <= 0 || g >= 1 {
		t.Errorf("Hier-GD gain %.3f implausible", g)
	}
}

func TestFacadeSchemesAndParsing(t *testing.T) {
	if len(webcache.AllSchemes()) != 7 {
		t.Errorf("expected 7 schemes")
	}
	s, err := webcache.ParseScheme("hier-gd")
	if err != nil || s != webcache.HierGD {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
}

func TestFacadeTraceCodecs(t *testing.T) {
	tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
		NumRequests: 5_000, NumObjects: 300, NumClients: 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := webcache.WriteTraceBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := webcache.ReadTraceBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("binary round trip lost requests")
	}
	buf.Reset()
	if err := webcache.WriteTraceText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err = webcache.ReadTraceText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("text round trip lost requests")
	}
	st := webcache.AnalyzeTrace(tr)
	if st.Requests != tr.Len() {
		t.Errorf("stats requests %d", st.Requests)
	}
}

func TestFacadeNetwork(t *testing.T) {
	m := webcache.DefaultNetwork()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m2, err := webcache.NewNetworkModel(webcache.NetworkParams{ServerProxyRatio: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Tc <= m.Tc {
		t.Error("smaller ratio should mean larger Tc")
	}
}

func TestFacadeFigure(t *testing.T) {
	fig, err := webcache.RunFigure("5a", webcache.FigureOptions{
		Scale: 0.03,
		Fracs: []float64{0.2},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := webcache.FormatTable(fig)
	if !strings.Contains(out, "Figure 5a") {
		t.Errorf("table output wrong:\n%s", out)
	}
	if len(webcache.FigureIDs()) != 8 {
		t.Error("expected 8 figure ids")
	}
}

func TestFacadeUCB(t *testing.T) {
	tr, err := webcache.GenerateUCBWorkload(webcache.UCBConfig{Scale: 0.005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty UCB trace")
	}
}

func TestFacadePresetsAndSweep(t *testing.T) {
	ps := webcache.WorkloadPresets()
	if len(ps) < 5 {
		t.Fatalf("presets = %d", len(ps))
	}
	tr, err := webcache.GeneratePresetWorkload("dec-isp", 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := webcache.SweepSchemes(tr, webcache.Config{Seed: 1},
		[]webcache.Scheme{webcache.HierGD}, []float64{0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || fig.Series[0].Points[0].Gain <= 0 {
		t.Fatalf("sweep figure wrong: %+v", fig.Series)
	}
	if _, err := webcache.GeneratePresetWorkload("nope", 1000, 1); err == nil {
		t.Error("unknown preset accepted")
	}
}
