package httpcache

// Fleet wiring: the proxy side of internal/fleet.  A fleet-enabled
// proxy owns a consistent-hash partition of the object namespace; a
// request for a key it does not hold routes to the key's owner (or a
// replica) before falling back to origin, hot keys it owns are
// replicated k-way onto the least-loaded successor members, and a
// membership change migrates exactly the keys whose ownership moved
// (fleet.MigrationSet).  The inter-proxy hop carries the defenses of
// every other hop: the (optionally adaptive) per-hop deadline and the
// per-member circuit breaker.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/fleet"
	"webcache/internal/invariant"
	"webcache/internal/p2p"
	"webcache/internal/pastry"
	"webcache/internal/store"
	"webcache/internal/trace"
)

// FleetHopHeader marks a /fetch request as an inter-proxy fleet hop.
// A member receiving it serves locally or goes to origin — it never
// re-routes, so a stale ring cannot loop a request around the fleet.
const FleetHopHeader = "X-Fleet-Hop"

// FleetOptions configures a proxy's fleet membership.
type FleetOptions struct {
	// Self is this proxy's base URL as the other members address it;
	// it must appear in Members.
	Self string
	// Members is the static bootstrap membership (base URLs).  Join
	// and leave events adjust the live ring from here.
	Members []string
	// Replication is k: the owner plus k−1 successor members replicate
	// a hot object.  1 (or 0, the default) partitions without
	// replication.
	Replication int
	// HotThreshold is the per-key load estimate at which the owner
	// replicates the key (default 16 touches).
	HotThreshold int
}

func (o *FleetOptions) fillDefaults() {
	if o.Replication <= 0 {
		o.Replication = 1
	}
	if o.HotThreshold <= 0 {
		o.HotThreshold = 16
	}
}

// fleetState is the per-proxy fleet runtime.
type fleetState struct {
	opts  FleetOptions
	ring  *fleet.Ring
	loads *fleet.LoadTracker
	peers *fleet.MemberLoads

	// replicating dedupes concurrent replicate-outs per key;
	// replicated marks keys whose replicas have landed.
	replicating sync.Map
	replicated  sync.Map

	// hbFails counts consecutive heartbeat failures per member
	// (guarded by hbMu; only the heartbeat loop writes it).
	hbMu    sync.Mutex
	hbFails map[string]int

	// acct is the replica-aware conservation ledger over the
	// /fleet/store receipt stream (lenient: live receipts do not see
	// this proxy's own origin inserts).  Guarded by the proxy's acctMu.
	acct *invariant.ClusterAccountant

	routed, routedHits, routedOrigin, routeFailed, routeSkipped,
	hopServes, replicasOut, replicasIn, migratedOut, migratedIn,
	joins, leaves, heartbeatFails atomic.Int64
}

// FleetStats is the fleet slice of ProxyStats.
type FleetStats struct {
	Enabled bool `json:"enabled"`
	Members int  `json:"members"`
	// Routed counts misses forwarded to another fleet member;
	// RoutedHits the forwards served from that member's cache,
	// RoutedOrigin the forwards the owner filled from origin.
	Routed       int `json:"routed"`
	RoutedHits   int `json:"routed_hits"`
	RoutedOrigin int `json:"routed_origin"`
	RouteFailed  int `json:"route_failed"`
	// RouteSkipped counts members skipped by an open breaker.
	RouteSkipped int `json:"route_skipped"`
	// HopServes counts /fetch requests that arrived as fleet hops.
	HopServes   int `json:"hop_serves"`
	ReplicasOut int `json:"replicas_out"`
	ReplicasIn  int `json:"replicas_in"`
	MigratedOut int `json:"migrated_out"`
	MigratedIn  int `json:"migrated_in"`
	Joins       int `json:"joins"`
	Leaves      int `json:"leaves"`
	// HeartbeatFails counts members dropped from the ring after
	// consecutive heartbeat failures.
	HeartbeatFails int `json:"heartbeat_fails"`
	// HotKeys is the load tracker's current table size.
	HotKeys int `json:"hot_keys"`
}

// Add accumulates another member's snapshot — topology-wide report
// aggregation.  Enabled ORs; Members keeps the max (each member
// reports its own ring size, not a summable count).
func (s *FleetStats) Add(o FleetStats) {
	s.Enabled = s.Enabled || o.Enabled
	if o.Members > s.Members {
		s.Members = o.Members
	}
	s.Routed += o.Routed
	s.RoutedHits += o.RoutedHits
	s.RoutedOrigin += o.RoutedOrigin
	s.RouteFailed += o.RouteFailed
	s.RouteSkipped += o.RouteSkipped
	s.HopServes += o.HopServes
	s.ReplicasOut += o.ReplicasOut
	s.ReplicasIn += o.ReplicasIn
	s.MigratedOut += o.MigratedOut
	s.MigratedIn += o.MigratedIn
	s.Joins += o.Joins
	s.Leaves += o.Leaves
	s.HeartbeatFails += o.HeartbeatFails
	s.HotKeys += o.HotKeys
}

// newFleetState builds a member's fleet runtime, self on its ring, the
// roster's base URLs normalized as a proxy's peers are.  acct is the
// replica-aware ledger (nil without a checker).
func newFleetState(opts FleetOptions, acct *invariant.ClusterAccountant) *fleetState {
	opts.fillDefaults()
	opts.Self = normalizeBaseURL(opts.Self)
	opts.Members = normalizeBaseURLs(opts.Members)
	f := &fleetState{
		opts:    opts,
		ring:    fleet.NewRingOf(fleet.DefaultVirtualNodes, opts.Members),
		loads:   fleet.NewLoadTracker(0),
		peers:   fleet.NewMemberLoads(),
		hbFails: make(map[string]int),
		acct:    acct,
	}
	f.ring.Add(opts.Self)
	return f
}

// FleetRing exposes the live membership ring (tests, telemetry).
func (p *Proxy) FleetRing() *fleet.Ring {
	if p.fleet == nil {
		return nil
	}
	return p.fleet.ring
}

// fleetHandlers registers the membership endpoints.  They exist on
// every proxy and answer 503 on one built without Options.Fleet, so a
// member can probe a proxy outside the fleet without a 404/handler
// ambiguity.
func (p *Proxy) fleetHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/join", p.handleFleetJoin)
	mux.HandleFunc("POST /fleet/leave", p.handleFleetLeave)
	mux.HandleFunc("GET /fleet/heartbeat", p.handleFleetHeartbeat)
	mux.HandleFunc("GET /fleet/members", p.handleFleetMembers)
	mux.HandleFunc("POST /fleet/store", p.handleFleetStore)
}

func (p *Proxy) fleetOr503(w http.ResponseWriter) *fleetState {
	f := p.fleet
	if f == nil {
		http.Error(w, "fleet not enabled", http.StatusServiceUnavailable)
		return nil
	}
	return f
}

// fleetTouch records owner-side load for a key and kicks off k-way
// replication when it crosses the hot threshold.  Called on every
// /fetch for keys this member owns — hits included, since hotness is
// about read load, not misses.
func (p *Proxy) fleetTouch(id pastry.ID, folded trace.ObjectID) {
	f := p.fleet
	owner, ok := f.ring.OwnerOf(folded)
	if !ok || owner != f.opts.Self {
		return
	}
	n := f.loads.Touch(folded)
	if f.opts.Replication < 2 || n < uint32(f.opts.HotThreshold) || n%uint32(f.opts.HotThreshold) != 0 {
		return
	}
	if _, done := f.replicated.Load(folded); done {
		return
	}
	if _, busy := f.replicating.LoadOrStore(folded, struct{}{}); busy {
		return
	}
	go func() {
		defer f.replicating.Delete(folded)
		p.replicateOut(id, folded)
	}()
}

// replicateOut copies a hot object this member owns onto the k−1
// successor replicas, least-loaded first.  Failures are dropped — the
// key stays un-replicated and the next threshold crossing retries.
func (p *Proxy) replicateOut(id pastry.ID, folded trace.ObjectID) {
	f := p.fleet
	obj, ok := p.tier.Get(folded)
	if !ok {
		return // not resident yet (first touches raced the origin fill)
	}
	cands := f.ring.ReplicasOf(folded, f.opts.Replication)
	var targets []string
	for _, m := range cands {
		if m != f.opts.Self {
			targets = append(targets, m)
		}
	}
	placed := 0
	for _, m := range f.peers.Order(targets) {
		if !p.peerAllowed(m) {
			continue
		}
		if p.fleetStore(m, obj, "replica") {
			f.replicasOut.Add(1)
			placed++
		}
	}
	if placed == len(targets) && placed > 0 {
		f.replicated.Store(folded, struct{}{})
	}
}

// fleetStore pushes one object to another member's proxy tier (the
// proxy-to-proxy analogue of the client-cache /store path, same
// StoreReceipt contract).  reason is "replica" or "rebalance".  Like a
// pass-down it outlives whichever request caused it.
func (p *Proxy) fleetStore(member string, obj store.Object, reason string) bool {
	path := "/fleet/store?key=" + obj.HexKey + "&cost=" + strconv.FormatFloat(obj.Cost, 'g', -1, 64) + "&reason=" + reason
	rep, err := p.hop(context.Background(), peer{fleetMember, member}, "POST", path, obj.Body, "")
	if err != nil {
		return false
	}
	p.peerOK(member)
	var rec StoreReceipt
	return rep.status == http.StatusOK && json.Unmarshal(rep.body, &rec) == nil && rec.Stored
}

// handleFleetStore accepts a replica or rebalanced object into this
// member's tier and answers with the StoreReceipt the sender's
// conservation ledger needs.
func (p *Proxy) handleFleetStore(w http.ResponseWriter, r *http.Request) {
	f := p.fleetOr503(w)
	if f == nil {
		return
	}
	id, hex, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cost := parseCost(queryParam(r.URL.RawQuery, "cost"))
	body, err := readRetainedBody(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	folded := fold(id)
	evicted, stored, err := p.tier.Put(folded, store.Object{HexKey: hex, Body: body, Cost: cost})
	if err != nil && err != store.ErrEmptyObject {
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
		return
	}
	rec := StoreReceipt{Stored: stored}
	for _, ev := range evicted {
		rec.Evicted = append(rec.Evicted, ev.HexKey)
	}
	reason := r.URL.Query().Get("reason")
	if reason == "replica" {
		f.replicasIn.Add(1)
	} else {
		f.migratedIn.Add(1)
	}
	p.recordFleetReceipt(folded, &rec, reason)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec)
}

// recordFleetReceipt feeds one /fleet/store receipt into the
// replica-aware conservation ledger: replicas add copies, rebalanced
// objects add (or refresh) primaries, and both displace what the
// receipt says they displaced.
func (p *Proxy) recordFleetReceipt(folded trace.ObjectID, rec *StoreReceipt, reason string) {
	f := p.fleet
	if f.acct == nil {
		return
	}
	evicted := foldHex(rec.Evicted)
	p.acctMu.Lock()
	defer p.acctMu.Unlock()
	if reason == "replica" {
		if rec.Stored {
			f.acct.RecordReplica(folded, evicted)
		}
		return
	}
	r := p2p.Receipt{Stored: folded, StoredOK: rec.Stored, Evicted: evicted}
	f.acct.RecordStore(r)
}

// fleetTier is the fleet member's rung of the cascade: a key of another
// member's partition is asked of its holders, owner and replicas,
// least-loaded first, each behind its breaker and the per-hop deadline.
// A holder's cache hit is served as TierRemoteProxy and its origin fill
// as TierOrigin, so the aggregate hit ratio stays honest.  The body is
// NOT inserted locally: ownership is the whole point of partitioning.
func (p *Proxy) fleetTier() tier {
	f := p.fleet
	return tier{
		spans: []string{"fleet.route"}, cat: "Tc",
		from: func(q fetchReq) []string {
			if q.r.Header.Get(FleetHopHeader) != "" {
				// Terminal member of a hop (already counted at arrival):
				// serve locally or origin-fill; never re-route (a stale
				// ring must not loop requests).
				return nil
			}
			holders := f.ring.ReplicasOf(q.folded, f.opts.Replication)
			if slices.Contains(holders, f.opts.Self) {
				// We are a designated holder that just missed: origin-fill
				// locally (and let fleetTouch replicate when hot).
				return nil
			}
			return f.peers.Order(holders)
		},
		admit: func(_ fetchReq, member string) bool {
			if p.peerAllowed(member) {
				return true
			}
			p.stats.breakerSkipped.Add(1)
			f.routeSkipped.Add(1)
			return false
		},
		ask: func(q fetchReq, member string, _ int) (served, error) {
			release := f.peers.Acquire(member)
			rep, err := p.hop(q.r.Context(), peer{fleetMember, member}, "GET", "/fetch?url="+url.QueryEscape(q.url), nil, q.st.TraceID())
			release()
			if err != nil {
				return served{}, err
			}
			if rep.status != http.StatusOK {
				p.peerFailed(member)
				return served{}, errMiss
			}
			p.peerOK(member)
			s := served{body: rep.body, by: TierRemoteProxy, hits: &f.routed}
			if rep.header.Get(ServedByHeader) == TierOrigin {
				f.routedOrigin.Add(1)
				s.by = TierOrigin
			} else {
				f.routedHits.Add(1)
			}
			return s, nil
		},
		// Every holder was passed over or failed: the request goes on to
		// the cooperating proxies and the origin.
		missed: func(fetchReq) { f.routeFailed.Add(1) },
	}
}

// handleFleetJoin admits a member and rebalances: exactly the resident
// keys whose ownership moved off this member migrate to their new
// owners (fleet.MigrationSet); the local copies stay until eviction,
// so there is no loss window between the ack and the migration.
func (p *Proxy) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	f := p.fleetOr503(w)
	if f == nil {
		return
	}
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		http.Error(w, "missing addr", http.StatusBadRequest)
		return
	}
	before := f.ring.Clone()
	if !f.ring.Add(addr) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"migrated": 0})
		return
	}
	f.joins.Add(1)
	migrated := p.rebalance(before, f.ring)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"migrated": migrated})
}

// handleFleetLeave retires a member from this member's ring.  Keys the
// departed member owned re-home to its successors automatically; its
// *own* drain is LeaveFleet on the departing proxy.
func (p *Proxy) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	f := p.fleetOr503(w)
	if f == nil {
		return
	}
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		http.Error(w, "missing addr", http.StatusBadRequest)
		return
	}
	if f.ring.Remove(addr) {
		f.leaves.Add(1)
	}
	w.WriteHeader(http.StatusNoContent)
}

// rebalance streams every resident key whose owner changed between the
// two rings to its new owner, synchronously (callers that need
// background migration wrap it in a goroutine; the join handler runs
// it inline so a test — or an operator's curl — observes completion).
func (p *Proxy) rebalance(before, after *fleet.Ring) int {
	f := p.fleet
	items := p.store.Items()
	keys := make([]trace.ObjectID, len(items))
	byKey := make(map[trace.ObjectID]store.Object, len(items))
	for i, it := range items {
		keys[i] = it.Key
		byKey[it.Key] = it.Object
	}
	moved := 0
	for _, key := range fleet.MigrationSet(before, after, f.opts.Self, keys) {
		owner, ok := after.OwnerOf(key)
		if !ok {
			continue
		}
		if p.fleetStore(owner, byKey[key], "rebalance") {
			f.migratedOut.Add(1)
			moved++
		}
	}
	return moved
}

// JoinFleet announces this member to every other configured member
// (each runs its own incremental rebalance toward us) — the daemon
// calls it at startup when -fleet-join is set.
func (p *Proxy) JoinFleet() int {
	f := p.fleet
	if f == nil {
		return 0
	}
	notified := 0
	for _, m := range f.ring.Members() {
		if m == f.opts.Self {
			continue
		}
		resp, err := p.client.Post(fmt.Sprintf("%s/fleet/join?addr=%s", m, url.QueryEscape(f.opts.Self)), "text/plain", nil)
		if err != nil {
			continue
		}
		drainClose(resp.Body)
		if resp.StatusCode == http.StatusOK {
			notified++
		}
	}
	p.events.Emit("fleet.join", map[string]string{
		"self": f.opts.Self, "notified": strconv.Itoa(notified)})
	return notified
}

// LeaveFleet drains this member: every key it owns migrates to the
// owner under the ring minus self, then the departure is announced.
// Returns the migrated-key count.  Zero acknowledged-object loss: the
// local copies are kept (reads keep working) and the handler keeps
// answering until the process exits.
func (p *Proxy) LeaveFleet() int {
	f := p.fleet
	if f == nil {
		return 0
	}
	before := f.ring.Clone()
	after := f.ring.Clone()
	after.Remove(f.opts.Self)
	moved := p.rebalance(before, after)
	for _, m := range after.Members() {
		resp, err := p.client.Post(fmt.Sprintf("%s/fleet/leave?addr=%s", m, url.QueryEscape(f.opts.Self)), "text/plain", nil)
		if err != nil {
			continue
		}
		drainClose(resp.Body)
	}
	f.ring.Remove(f.opts.Self)
	f.leaves.Add(1)
	p.events.Emit("fleet.leave", map[string]string{
		"self": f.opts.Self, "migrated": strconv.Itoa(moved)})
	return moved
}

// fleetHeartbeat is the GET /fleet/heartbeat payload.
type fleetHeartbeat struct {
	Self    string `json:"self"`
	Load    uint64 `json:"load"`
	Objects int    `json:"objects"`
	Members int    `json:"members"`
}

func (p *Proxy) handleFleetHeartbeat(w http.ResponseWriter, _ *http.Request) {
	f := p.fleetOr503(w)
	if f == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fleetHeartbeat{
		Self:    f.opts.Self,
		Load:    f.loads.Total(),
		Objects: p.store.Len(),
		Members: f.ring.Size(),
	})
}

func (p *Proxy) handleFleetMembers(w http.ResponseWriter, _ *http.Request) {
	f := p.fleetOr503(w)
	if f == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(f.ring.Members())
}

// heartbeatDropAfter is the consecutive-failure count at which the
// heartbeat loop drops a member from the local ring (it keeps probing
// the static membership, so a recovered member is re-admitted).
const heartbeatDropAfter = 3

// HeartbeatOnce probes every configured member, refreshing the load
// view and adjusting the ring: heartbeatDropAfter consecutive failures
// evict a member; a later success re-admits it.  Exposed so tests (and
// the bench driver) can drive membership convergence deterministically.
func (p *Proxy) HeartbeatOnce() {
	f := p.fleet
	if f == nil {
		return
	}
	for _, m := range f.opts.Members {
		if m == f.opts.Self {
			continue
		}
		var hb fleetHeartbeat
		ok := func() bool {
			resp, err := p.probeClient.Get(m + "/fleet/heartbeat")
			if err != nil {
				return false
			}
			defer drainClose(resp.Body)
			return resp.StatusCode == http.StatusOK &&
				json.NewDecoder(resp.Body).Decode(&hb) == nil
		}()
		f.hbMu.Lock()
		if ok {
			f.hbFails[m] = 0
			f.peers.Report(m, hb.Load)
			if f.ring.Add(m) { // no-op when already present
				p.events.Emit("fleet.member.readmit", map[string]string{"peer": m})
			}
		} else {
			f.hbFails[m]++
			if f.hbFails[m] == heartbeatDropAfter && f.ring.Remove(m) {
				f.heartbeatFails.Add(1)
				p.events.Emit("fleet.member.drop", map[string]string{"peer": m})
			}
		}
		f.hbMu.Unlock()
	}
}

// StartFleetHeartbeat runs HeartbeatOnce every interval until the
// returned stop func is called.
func (p *Proxy) StartFleetHeartbeat(interval time.Duration) (stop func()) {
	return every(interval, p.HeartbeatOnce)
}

// snapshotFleet fills the fleet slice of ProxyStats.
func (p *Proxy) snapshotFleet() FleetStats {
	f := p.fleet
	if f == nil {
		return FleetStats{}
	}
	return FleetStats{
		Enabled:        true,
		Members:        f.ring.Size(),
		Routed:         int(f.routed.Load()),
		RoutedHits:     int(f.routedHits.Load()),
		RoutedOrigin:   int(f.routedOrigin.Load()),
		RouteFailed:    int(f.routeFailed.Load()),
		RouteSkipped:   int(f.routeSkipped.Load()),
		HopServes:      int(f.hopServes.Load()),
		ReplicasOut:    int(f.replicasOut.Load()),
		ReplicasIn:     int(f.replicasIn.Load()),
		MigratedOut:    int(f.migratedOut.Load()),
		MigratedIn:     int(f.migratedIn.Load()),
		Joins:          int(f.joins.Load()),
		Leaves:         int(f.leaves.Load()),
		HeartbeatFails: int(f.heartbeatFails.Load()),
		HotKeys:        f.loads.Len(),
	}
}
