package invariant

import "webcache/internal/trace"

// OriginOracle counts cold serves: serves by a cache tier (a proxy, a
// client cache, a cooperating proxy) of an object that the origin has
// not yet served in this run.  A cache that fills only on a miss can
// hold nothing origin did not send first, so a cold serve is a copy
// placed ahead of demand.  The count is the check.cold_serves counter,
// not a violation: FC and FC-EC place each window's objects in advance
// (DESIGN §2.4), and every one of their serves is cold until they fill
// on a miss.
type OriginOracle struct {
	chk    *Checker
	served []bool // by ObjectID: origin has served it in this run
	cold   int64
}

// NewOriginOracle creates an oracle over a universe of objects
// recording into chk.  With a nil Checker it returns nil, and every
// method on a nil oracle is a no-op.
func NewOriginOracle(chk *Checker, objects int) *OriginOracle {
	if chk == nil {
		return nil
	}
	return &OriginOracle{chk: chk, served: make([]bool, objects)}
}

// Serve records one serve of obj, by the origin or by a cache tier.
func (o *OriginOracle) Serve(obj trace.ObjectID, fromOrigin bool) {
	if o == nil {
		return
	}
	if fromOrigin {
		o.served[obj] = true
	} else if !o.served[obj] {
		o.cold++
	}
}

// Finish adds the run's cold serves to the check.cold_serves counter.
func (o *OriginOracle) Finish() {
	if o == nil {
		return
	}
	o.chk.reg.Counter("check.cold_serves").Add(o.cold)
}
