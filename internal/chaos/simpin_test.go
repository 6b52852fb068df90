package chaos

import (
	"testing"

	"webcache/internal/invariant"
)

// runSimPinned replays scn through the simulator at the chaos-smoke
// shape: 1 500 requests, 200 objects, 40 clients, 2 proxies x 3
// caches, seed 1.
func runSimPinned(scn Scenario, defensesOn bool, chk *invariant.Checker) (*SimReport, error) {
	return RunSim(Config{Requests: 1500, Objects: 200, Clients: 40, Proxies: 2, CachesPerProxy: 3}, scn, defensesOn, chk)
}

// simPin is the part of a SimReport TestSimRowsPinned holds.
type simPin struct {
	HitRatio, MeanMs, P999Ms           float64
	FlashChurned                       int
	PoisonInjected, PoisonSwept        int
	ByzantineServes, ByzantineDetected int
}

// TestSimRowsPinned pins every simulated row of the chaos suite at the
// chaos-smoke shape: each scenario with defenses off, and on wherever
// SimDefended maps a defense.  The simulator is deterministic, so a
// change to how the runs are configured must reproduce every value
// exactly.
func TestSimRowsPinned(t *testing.T) {
	want := map[string]simPin{
		"baseline/off":                 {0.4046666666666666, 0.65929999999998, 1.15, 0, 0, 0, 0, 0},
		"slow-peer/off":                {0.4046666666666666, 0.7201999999999792, 1.15, 0, 0, 0, 0, 0},
		"flash-churn/off":              {0.3966666666666666, 0.6659799999999794, 1.15, 2, 0, 0, 0, 0},
		"churn-during-flash-crowd/off": {0.5553333333333333, 0.5090266666666474, 1.15, 2, 0, 0, 0, 0},
		"byzantine/off":                {0.4046666666666666, 0.65929999999998, 1.15, 0, 0, 0, 74, 0},
		"byzantine/on":                 {0.3766666666666667, 0.6871933333333122, 1.22, 0, 0, 0, 67, 61},
		"launder/off":                  {0.4046666666666666, 0.7201999999999792, 1.15, 0, 0, 0, 0, 0}, // slow-peer's replay
		"poison/off":                   {0.4046666666666666, 0.6599799999999802, 1.22, 0, 13, 7, 0, 0},
		"poison/on":                    {0.4046666666666666, 0.65929999999998, 1.15, 0, 13, 13, 0, 0},
	}
	ran := 0
	for _, scn := range Scenarios() {
		sides := []bool{false}
		if SimDefended(scn) {
			sides = append(sides, true)
		}
		for _, on := range sides {
			name := scn.Name + "/off"
			if on {
				name = scn.Name + "/on"
			}
			ran++
			t.Run(name, func(t *testing.T) {
				chk := invariant.New(nil)
				rep, err := runSimPinned(scn, on, chk)
				if err != nil {
					t.Fatal(err)
				}
				if err := chk.Err(); err != nil {
					t.Fatal(err)
				}
				got := simPin{rep.HitRatio, rep.MeanMs, rep.P999Ms, rep.FlashChurned,
					rep.PoisonInjected, rep.PoisonSwept, rep.ByzantineServes, rep.ByzantineDetected}
				if w, ok := want[name]; !ok || got != w {
					t.Errorf("got  %+v\nwant %+v (pinned: %v)", got, w, ok)
				}
			})
		}
	}
	if ran != len(want) {
		t.Errorf("ran %d rows, %d pinned", ran, len(want))
	}
}
