package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"webcache/internal/invariant"
)

// chaosBase is the Hier-GD configuration the chaos-fault tests perturb.
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

// TestChaosFlashChurn pins the mass-churn fault: a flash disconnect at
// the trace's midpoint fails ChurnFraction of the daemons, the engine
// keeps serving, and the full invariant subsystem stays clean.
func TestChaosFlashChurn(t *testing.T) {
	tr := testTrace(t, 1)
	chk := invariant.New(nil)
	cfg := chaosBase(chk)
	cfg.Churn = true
	res := run(t, tr, cfg)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if res.FlashChurned == 0 {
		t.Fatal("churn set but no clients failed")
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

// TestChaosPoisonAndSweep pins the directory-poisoning fault and its
// hardened defense: bogus entries are injected, the periodic sweep removes
// them, and conservation holds throughout (the poison entries live in
// the directory only — no cache state backs them, which is exactly
// what the sweep detects).
func TestChaosPoisonAndSweep(t *testing.T) {
	tr := testTrace(t, 1)
	chk := invariant.New(nil)
	cfg := chaosBase(chk)
	cfg.Poison, cfg.Hardened = true, true
	res := run(t, tr, cfg)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if res.PoisonInjected == 0 {
		t.Fatal("poison set but nothing injected")
	}
	if res.PoisonSwept == 0 {
		t.Fatal("hardened but nothing swept")
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
	cfg.Poison = true
	res := run(t, tr, cfg)
	if res.PoisonInjected == 0 {
		t.Fatal("poison set but nothing injected")
	}
	// The finish pass sweeps whatever the (absent) periodic sweep left;
	// unhardened, everything still resident lands there.
	if res.PoisonSwept == 0 {
		t.Fatal("final sweep removed nothing — injection is not reaching the directory")
	}
}

// TestChaosByzantine pins the byzantine-serve fault: corrupt P2P serves
// happen, hardened sampling detects a fraction of them, and detection never
// exceeds the corruption count.
func TestChaosByzantine(t *testing.T) {
	tr := testTrace(t, 1)
	chk := invariant.New(nil)
	cfg := chaosBase(chk)
	cfg.Byzantine, cfg.Hardened = true, true
	res := run(t, tr, cfg)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if res.ByzantineServes == 0 {
		t.Fatal("byzantine set but no corrupt serves")
	}
	if res.ByzantineDetected == 0 {
		t.Fatal("hardened verification sampling detected nothing")
	}
	if res.ByzantineDetected > res.ByzantineServes {
		t.Fatalf("detected %d > served %d", res.ByzantineDetected, res.ByzantineServes)
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations under byzantine serves", res.InvariantViolations)
	}
}

// TestHardenedActsOnlyOnItsFault holds Hardened to "a defense acts
// only under its own fault", which keeps the digest pins safe: with no
// fault set, or only Churn (which has no simulated defense), a
// hardened run's Result is byte-identical to a plain one's; the sweep
// ticks only under Poison, on its own period; digest sampling detects
// only under Byzantine.
func TestHardenedActsOnlyOnItsFault(t *testing.T) {
	tr := testTrace(t, 1)
	for _, f := range []Faults{{}, {Churn: true}, {Byzantine: true}, {Poison: true}} {
		cfg := chaosBase(nil)
		cfg.Faults = f
		plain := run(t, tr, cfg)
		cfg.Hardened = true
		hard := run(t, tr, cfg)
		sweeps := 0
		if f.Poison {
			sweeps = (tr.Len() - 1) / dirSweepEvery
		}
		if d := hard.MaintenanceTicks - plain.MaintenanceTicks; d != sweeps {
			t.Errorf("%+v: hardening added %d maintenance ticks, want %d sweeps", f, d, sweeps)
		}
		if (hard.ByzantineDetected > 0) != f.Byzantine || plain.ByzantineDetected != 0 {
			t.Errorf("%+v: detected %d hardened, %d plain", f, hard.ByzantineDetected, plain.ByzantineDetected)
		}
		if f.Byzantine || f.Poison {
			continue
		}
		a, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(hard)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%+v: hardening moved the Result:\n  plain    %s\n  hardened %s", f, a, b)
		}
	}
}
