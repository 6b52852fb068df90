package p2p

import (
	"math"
	"testing"

	"webcache/internal/trace"
)

func TestGini(t *testing.T) {
	if g := gini(nil); g != 0 {
		t.Errorf("empty gini = %g", g)
	}
	if g := gini([]float64{0, 0, 0}); g != 0 {
		t.Errorf("all-zero gini = %g", g)
	}
	if g := gini([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Errorf("uniform gini = %g, want 0", g)
	}
	// One node holds everything: G -> (n-1)/n.
	if g := gini([]float64{0, 0, 0, 12}); math.Abs(g-0.75) > 1e-9 {
		t.Errorf("concentrated gini = %g, want 0.75", g)
	}
	// More unequal distributions have higher Gini.
	even := gini([]float64{4, 5, 6, 5})
	skew := gini([]float64{1, 1, 1, 17})
	if skew <= even {
		t.Errorf("gini ordering wrong: %g <= %g", skew, even)
	}
}

func TestStorageBalanceEmptyCluster(t *testing.T) {
	c := testCluster(t, 5, 4)
	st := c.StorageBalance()
	if st.Live != 5 || st.MeanUtilization != 0 || st.Gini != 0 || st.FullNodes != 0 {
		t.Errorf("fresh cluster balance = %+v", st)
	}
}

func TestStorageBalanceTracksLoad(t *testing.T) {
	c := testCluster(t, 10, 10)
	for obj := trace.ObjectID(0); obj < 50; obj++ {
		c.StoreEvicted(entry(obj), 0, true)
	}
	st := c.StorageBalance()
	if st.MeanUtilization <= 0 || st.MeanUtilization > 1 {
		t.Errorf("mean utilization %g", st.MeanUtilization)
	}
	if st.MaxUtilization < st.MinUtilization {
		t.Error("max < min")
	}
	if st.Gini < 0 || st.Gini > 1 {
		t.Errorf("gini %g outside [0,1]", st.Gini)
	}
}

// The §4.3 claim: diversion balances storage across the leaf set.
// With diversion on, the load distribution must be measurably more
// even than with it off, under identical pass-down streams.
func TestDiversionImprovesBalance(t *testing.T) {
	load := func(disable bool) BalanceStats {
		c, err := NewCluster(Config{
			NumClients:        32,
			PerClientCapacity: 4,
			DisableDiversion:  disable,
			Seed:              42,
		})
		if err != nil {
			t.Fatal(err)
		}
		for obj := trace.ObjectID(0); obj < 100; obj++ {
			if _, err := c.StoreEvicted(entry(obj), int(obj)%32, true); err != nil {
				t.Fatal(err)
			}
		}
		return c.StorageBalance()
	}
	with := load(false)
	without := load(true)
	if with.Gini >= without.Gini {
		t.Errorf("diversion did not reduce Gini: with=%.3f without=%.3f", with.Gini, without.Gini)
	}
}

func TestDisableDiversionSuppressesMechanism(t *testing.T) {
	c, err := NewCluster(Config{
		NumClients:        16,
		PerClientCapacity: 2,
		DisableDiversion:  true,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for obj := trace.ObjectID(0); obj < 80; obj++ {
		c.StoreEvicted(entry(obj), int(obj)%16, true)
	}
	st := c.Stats()
	if st.Diversions != 0 {
		t.Errorf("diversions = %d with the mechanism disabled", st.Diversions)
	}
	if st.Replacements == 0 {
		t.Error("no replacements despite overload and no diversion")
	}
}

func TestLoadBalanceEmpty(t *testing.T) {
	c := testCluster(t, 3, 4)
	st := c.LoadBalance()
	if st.TotalServes != 0 || st.MaxServes != 0 {
		t.Errorf("fresh cluster load = %+v", st)
	}
}
