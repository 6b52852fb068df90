package sim

import (
	"testing"

	"webcache/internal/invariant"
)

// chaosBase is the Hier-GD configuration the chaos-knob tests perturb.
func chaosBase(chk *invariant.Checker) Config {
	return Config{
		Scheme:            HierGD,
		NumProxies:        2,
		ClientsPerCluster: 16,
		P2PClientCaches:   4,
		ProxyCacheFrac:    0.05,
		ClientCacheFrac:   0.005,
		Seed:              1,
		Check:             chk,
	}
}

// TestChaosFlashChurn pins the mass-churn knob: a mid-run flash
// disconnect fails the configured fraction of daemons, the engine
// keeps serving, and the full invariant subsystem stays clean.
func TestChaosFlashChurn(t *testing.T) {
	tr := testTrace(t, 1)
	chk := invariant.New(nil)
	cfg := chaosBase(chk)
	cfg.FlashChurnAt = tr.Len() / 2
	cfg.FlashChurnFraction = 0.5
	res := run(t, tr, cfg)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if res.FlashChurned == 0 {
		t.Fatal("flash churn configured but no clients failed")
	}
	// 2 proxies x 4 caches, half churned, at least one survivor kept
	// per proxy: between 2 and 6 victims.
	if res.FlashChurned < 2 || res.FlashChurned > 6 {
		t.Fatalf("flash churned %d daemons, want 2..6", res.FlashChurned)
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations under flash churn", res.InvariantViolations)
	}
}

// TestChaosPoisonAndSweep pins the directory-poisoning knob and its
// defense: bogus entries are injected, the periodic sweep removes
// them, and conservation holds throughout (the poison entries live in
// the directory only — no cache state backs them, which is exactly
// what the sweep detects).
func TestChaosPoisonAndSweep(t *testing.T) {
	tr := testTrace(t, 1)
	chk := invariant.New(nil)
	cfg := chaosBase(chk)
	cfg.PoisonEvery = 500
	cfg.DirSweepEvery = 250
	res := run(t, tr, cfg)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if res.PoisonInjected == 0 {
		t.Fatal("poisoning configured but nothing injected")
	}
	if res.PoisonSwept == 0 {
		t.Fatal("sweep configured but nothing swept")
	}
	if res.PoisonSwept < res.PoisonInjected {
		t.Fatalf("swept %d < injected %d: poison left in the directory at finish",
			res.PoisonSwept, res.PoisonInjected)
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations under poisoning", res.InvariantViolations)
	}
}

// TestChaosPoisonWithoutSweepDegrades pins the attack's teeth: with no
// sweep, poisoned entries survive to the final cleanup and every probe
// of one pays a wasted P2P round trip (visible as directory false
// positives).
func TestChaosPoisonWithoutSweep(t *testing.T) {
	tr := testTrace(t, 1)
	cfg := chaosBase(nil)
	cfg.PoisonEvery = 500
	res := run(t, tr, cfg)
	if res.PoisonInjected == 0 {
		t.Fatal("poisoning configured but nothing injected")
	}
	// The finish pass sweeps whatever the (absent) periodic sweep left;
	// without DirSweepEvery everything still resident lands there.
	if res.PoisonSwept == 0 {
		t.Fatal("final sweep removed nothing — injection is not reaching the directory")
	}
}

// TestChaosByzantine pins the byzantine-serve knob: corrupt P2P serves
// happen, sampling detects a fraction of them, and detection never
// exceeds the corruption count.
func TestChaosByzantine(t *testing.T) {
	tr := testTrace(t, 1)
	chk := invariant.New(nil)
	cfg := chaosBase(chk)
	cfg.ByzantineFraction = 0.5
	cfg.VerifyFraction = 1.0
	res := run(t, tr, cfg)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if res.ByzantineServes == 0 {
		t.Fatal("byzantine fraction configured but no corrupt serves")
	}
	if res.ByzantineDetected == 0 {
		t.Fatal("full verification sampling detected nothing")
	}
	if res.ByzantineDetected > res.ByzantineServes {
		t.Fatalf("detected %d > served %d", res.ByzantineDetected, res.ByzantineServes)
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations under byzantine serves", res.InvariantViolations)
	}
}

// TestChaosKnobsOffMatchBaseline guards the digest pin the cheap way:
// a run with every chaos knob zero must be bit-identical to a plain
// run — the knobs may not consume rng draws or touch state when off.
func TestChaosKnobsOffMatchBaseline(t *testing.T) {
	tr := testTrace(t, 1)
	plain := run(t, tr, chaosBase(nil))
	again := run(t, tr, chaosBase(nil))
	if plain.HitRatio(0) != again.HitRatio(0) || plain.AvgLatency != again.AvgLatency {
		t.Fatal("baseline replay is not deterministic")
	}
}
