package loadgen

import (
	"strings"
	"testing"

	"webcache/internal/prowgen"
)

// A live run whose every outcome was dropped measured nothing: its hit
// ratios read 0, and so does a one-request replay that went to origin,
// so calibrating it would report agreement.  Calibrate refuses it, as
// `hiergdd bench live -warmup N` with N at least the requests issued,
// or a -duration that ends inside the warmup, would otherwise gate on.
func TestCalibrateRefusesUnmeasuredRun(t *testing.T) {
	tr, err := prowgen.Generate(prowgen.Config{NumRequests: 200, NumObjects: 50, NumClients: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoopbackSimConfig(2, 3, 10, 1)
	cfg.WarmupRequests = 200
	for _, tc := range []struct {
		name string
		live Result
	}{
		{"the warmup covers every request", Result{Issued: 200, WarmupDiscarded: 200}},
		{"the run stopped inside the warmup", Result{Issued: 40, WarmupDiscarded: 40}},
		{"every measured request failed", Result{Issued: 200, WarmupDiscarded: 20, Errors: 180}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Calibrate(tr, &tc.live, cfg, 0.2)
			if err == nil || !strings.Contains(err.Error(), "measured no request") {
				t.Fatalf("Calibrate = %+v, %v; want it refused for measuring no request", rep, err)
			}
		})
	}
}
