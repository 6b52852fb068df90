package loadgen

import (
	"fmt"
	"math/rand"
	"net/url"
	"testing"

	"webcache/internal/trace"
)

// fmtScheduleURL is the rendering BuildSchedule used before it escaped
// one prefix per proxy: two Sprintfs and a QueryEscape per request.
func fmtScheduleURL(proxyURL, originURL string, obj trace.ObjectID) string {
	objURL := fmt.Sprintf("%s/obj/%d", originURL, obj)
	return fmt.Sprintf("%s/fetch?url=%s", proxyURL, url.QueryEscape(objURL))
}

// scheduleTrace is n requests from clients over objects, every object
// id at least minObject, in time order.
func scheduleTrace(rng *rand.Rand, n, clients int, minObject, objects uint64) *trace.Trace {
	tr := &trace.Trace{NumClients: clients, NumObjects: int(minObject + objects)}
	for i := range n {
		tr.Requests = append(tr.Requests, trace.Request{
			Time:   uint32(i),
			Client: trace.ClientID(rng.Intn(clients)),
			Object: trace.ObjectID(minObject + rng.Uint64()%objects),
			Size:   1,
		})
	}
	return tr
}

func clientModulo(proxies int) func(trace.ClientID) int {
	return func(c trace.ClientID) int { return int(c) % proxies }
}

// TestBuildScheduleMatchesFmtRendering: every URL is byte-identical to
// the fmt/QueryEscape rendering, for an IPv6 proxy, an origin whose
// path needs escaping, and ids on either side of a digit boundary up
// to one far past 32 bits.
func TestBuildScheduleMatchesFmtRendering(t *testing.T) {
	proxies := []string{"http://127.0.0.1:41234", "http://[::1]:8080", "http://proxy-2"}
	ids := []trace.ObjectID{0, 9, 10, 99, 100, 1 << 40, 12345}
	for _, origin := range []string{
		"http://127.0.0.1:9000",
		"http://[::1]:9001",
		"http://origin.example/a b/ü?x=1&y=%2F#frag+",
	} {
		tr := &trace.Trace{NumClients: 6, NumObjects: 1<<40 + 1}
		for i, id := range ids {
			for c := range tr.NumClients {
				tr.Requests = append(tr.Requests, trace.Request{
					Time: uint32(i), Client: trace.ClientID(c), Object: id, Size: 1,
				})
			}
		}
		proxyFor := clientModulo(len(proxies))
		s, err := BuildSchedule(tr, proxies, origin, proxyFor)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Requests) != len(tr.Requests) {
			t.Fatalf("origin %q: %d requests scheduled, want %d", origin, len(s.Requests), len(tr.Requests))
		}
		for i, r := range s.Requests {
			in := tr.Requests[i]
			want := fmtScheduleURL(proxies[proxyFor(in.Client)], origin, in.Object)
			if r.URL != want {
				t.Errorf("origin %q request %d: URL %q, want %q", origin, i, r.URL, want)
			}
			if r.Index != i || r.Client != in.Client || r.Object != in.Object || r.Proxy != proxyFor(in.Client) {
				t.Errorf("origin %q request %d: scheduled as %+v", origin, i, r)
			}
		}
	}
}

// BenchmarkBuildSchedule renders a live_hit-sized schedule: 200 000
// requests over two proxies.
func BenchmarkBuildSchedule(b *testing.B) {
	tr := scheduleTrace(rand.New(rand.NewSource(1)), 200_000, 400, 0, 20_000)
	proxies := []string{"http://127.0.0.1:41001", "http://127.0.0.1:41002"}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildSchedule(tr, proxies, "http://127.0.0.1:41000", clientModulo(len(proxies))); err != nil {
			b.Fatal(err)
		}
	}
}
