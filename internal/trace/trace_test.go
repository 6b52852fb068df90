package trace

import (
	"math"
	"testing"
)

func mkTrace(reqs ...Request) *Trace {
	t := &Trace{Requests: reqs}
	t.Recount()
	return t
}

func TestRecount(t *testing.T) {
	tr := mkTrace(
		Request{Time: 0, Client: 3, Object: 7, Size: 1},
		Request{Time: 1, Client: 1, Object: 2, Size: 1},
	)
	if tr.NumClients != 4 {
		t.Errorf("NumClients = %d, want 4", tr.NumClients)
	}
	if tr.NumObjects != 8 {
		t.Errorf("NumObjects = %d, want 8", tr.NumObjects)
	}
}

func TestValidateOK(t *testing.T) {
	tr := mkTrace(
		Request{Time: 0, Client: 0, Object: 0, Size: 1},
		Request{Time: 0, Client: 1, Object: 1, Size: 2},
		Request{Time: 5, Client: 0, Object: 0, Size: 1},
	)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]*Trace{
		"empty": {NumClients: 1, NumObjects: 1},
		"client out of range": {
			Requests:   []Request{{Client: 5, Object: 0, Size: 1}},
			NumClients: 2, NumObjects: 1,
		},
		"object out of range": {
			Requests:   []Request{{Client: 0, Object: 9, Size: 1}},
			NumClients: 1, NumObjects: 2,
		},
		"zero size": {
			Requests:   []Request{{Client: 0, Object: 0, Size: 0}},
			NumClients: 1, NumObjects: 1,
		},
		"time backwards": {
			Requests: []Request{
				{Time: 5, Client: 0, Object: 0, Size: 1},
				{Time: 4, Client: 0, Object: 0, Size: 1},
			},
			NumClients: 1, NumObjects: 1,
		},
		"bad universe": {
			Requests:   []Request{{Client: 0, Object: 0, Size: 1}},
			NumClients: 0, NumObjects: 1,
		},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid trace", name)
		}
	}
}

func TestSlice(t *testing.T) {
	tr := mkTrace(
		Request{Time: 0, Client: 0, Object: 0, Size: 1},
		Request{Time: 1, Client: 1, Object: 1, Size: 1},
		Request{Time: 2, Client: 2, Object: 2, Size: 1},
	)
	s := tr.Slice(1, 3)
	if s.Len() != 2 {
		t.Fatalf("Slice len = %d, want 2", s.Len())
	}
	if s.Requests[0].Client != 1 {
		t.Errorf("Slice[0].Client = %d, want 1", s.Requests[0].Client)
	}
	if s.NumClients != tr.NumClients || s.NumObjects != tr.NumObjects {
		t.Error("Slice must preserve universe sizes")
	}
}

func TestAnalyze(t *testing.T) {
	// Objects: 0 accessed 3x by clients {0,1}; 1 accessed 1x; 2 accessed 2x by client 2.
	tr := mkTrace(
		Request{Client: 0, Object: 0, Size: 1},
		Request{Client: 1, Object: 0, Size: 1},
		Request{Client: 0, Object: 0, Size: 1},
		Request{Client: 1, Object: 1, Size: 1},
		Request{Client: 2, Object: 2, Size: 1},
		Request{Client: 2, Object: 2, Size: 1},
	)
	s := Analyze(tr)
	if s.Requests != 6 {
		t.Errorf("Requests = %d", s.Requests)
	}
	if s.DistinctObjs != 3 {
		t.Errorf("DistinctObjs = %d", s.DistinctObjs)
	}
	if s.OneTimers != 1 {
		t.Errorf("OneTimers = %d", s.OneTimers)
	}
	if s.MultiAccessed != 2 {
		t.Errorf("MultiAccessed = %d", s.MultiAccessed)
	}
	if s.DistinctClients != 3 {
		t.Errorf("DistinctClients = %d", s.DistinctClients)
	}
	if s.MaxFreq != 3 {
		t.Errorf("MaxFreq = %d", s.MaxFreq)
	}
	// Object 0 shared by 2 clients, object 2 by 1 → mean sharing 1.5.
	if s.MeanSharing != 1.5 {
		t.Errorf("MeanSharing = %g, want 1.5", s.MeanSharing)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestInfiniteCacheSize(t *testing.T) {
	// Cluster 0 = clients {0,1}, cluster 1 = {2,3}.
	tr := mkTrace(
		Request{Client: 0, Object: 10, Size: 1},
		Request{Client: 1, Object: 10, Size: 1}, // obj 10 multi-accessed in cluster 0
		Request{Client: 0, Object: 11, Size: 1}, // one-timer in cluster 0
		Request{Client: 2, Object: 10, Size: 1}, // single access in cluster 1
		Request{Client: 3, Object: 12, Size: 1},
		Request{Client: 3, Object: 12, Size: 1}, // obj 12 multi-accessed in cluster 1
		Request{Client: 2, Object: 12, Size: 1},
	)
	sizes := InfiniteCacheUnits(tr, 2, []int{0, 0, 1, 1})
	if sizes[0] != 1 {
		t.Errorf("cluster 0 infinite size = %d, want 1", sizes[0])
	}
	if sizes[1] != 1 {
		t.Errorf("cluster 1 infinite size = %d, want 1", sizes[1])
	}
}

func TestInfiniteCacheSizeIgnoresOutOfRangeClusters(t *testing.T) {
	tr := mkTrace(
		Request{Client: 0, Object: 1, Size: 1},
		Request{Client: 0, Object: 1, Size: 1},
	)
	sizes := InfiniteCacheUnits(tr, 1, []int{5})
	if sizes[0] != 0 {
		t.Errorf("out-of-range cluster mapping should contribute nothing, got %d", sizes[0])
	}
}

func TestFitZipfRecoversAlpha(t *testing.T) {
	// Construct an exact Zipf popularity vector and check the fit.
	for _, alpha := range []float64{0.5, 0.7, 1.0} {
		var tr Trace
		n := 500
		for i := 0; i < n; i++ {
			f := int(5000 / powf(float64(i+1), alpha))
			if f < 1 {
				f = 1
			}
			for j := 0; j < f; j++ {
				tr.Requests = append(tr.Requests, Request{Client: 0, Object: ObjectID(i), Size: 1})
			}
		}
		tr.Recount()
		s := Analyze(&tr)
		if diff := s.ZipfAlpha - alpha; diff > 0.12 || diff < -0.12 {
			t.Errorf("alpha=%g: fitted %g (diff %g)", alpha, s.ZipfAlpha, diff)
		}
	}
}

func powf(x, y float64) float64 { return math.Pow(x, y) }
