package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refInfiniteCacheUnits is the map-based sizing rule this package
// shipped before the dense table, kept verbatim as the oracle for
// TestInfiniteCacheMatchesReference.
func refInfiniteCacheUnits(t *Trace, clusters int, belongsTo func(ClientID) int) []uint64 {
	type key struct {
		cluster int
		obj     ObjectID
	}
	freq := make(map[key]int)
	size := make(map[ObjectID]uint32, t.NumObjects)
	for _, r := range t.Requests {
		c := belongsTo(r.Client)
		if c < 0 || c >= clusters {
			continue
		}
		freq[key{c, r.Object}]++
		size[r.Object] = r.Size
	}
	out := make([]uint64, clusters)
	for k, f := range freq {
		if f > 1 {
			out[k.cluster] += uint64(size[k.obj])
		}
	}
	return out
}

// TestInfiniteCacheMatchesReference holds the dense sizing pass to the
// map-based one on random traces whose objects change size between
// requests (the last size wins, also when the last request comes from
// another cluster), with some clients mapped outside every cluster
// (negative and too-large indices) and 1, 2 and 5 clusters.
func TestInfiniteCacheMatchesReference(t *testing.T) {
	for _, clusters := range []int{1, 2, 5} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			objects, clients := 5+rng.Intn(200), 3+rng.Intn(40)
			tr := &Trace{}
			for i, n := 0, 1+rng.Intn(3000); i < n; i++ {
				tr.Requests = append(tr.Requests, Request{
					Time:   uint32(i),
					Client: ClientID(rng.Intn(clients)),
					Object: ObjectID(rng.Intn(objects)),
					Size:   uint32(1 + rng.Intn(9)),
				})
			}
			tr.Recount()
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			// Clients 0 and 1 belong nowhere; the rest spread over the
			// clusters.
			belongsTo := func(c ClientID) int {
				switch c {
				case 0:
					return -1
				case 1:
					return clusters
				}
				return int(c) % clusters
			}
			clusterOf := make([]int, tr.NumClients)
			for c := range clusterOf {
				clusterOf[c] = belongsTo(ClientID(c))
			}
			name := fmt.Sprintf("clusters=%d seed=%d", clusters, seed)
			if got, want := InfiniteCacheUnits(tr, clusters, clusterOf), refInfiniteCacheUnits(tr, clusters, belongsTo); !slices.Equal(got, want) {
				t.Errorf("%s: InfiniteCacheUnits = %v, reference %v", name, got, want)
			}
		}
	}
}
