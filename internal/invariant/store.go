package invariant

// Body-map reconciliation for the live store (internal/store): the
// store keeps every resident body in a map beside the greedy-dual
// policy that decides what stays, so the two hold the same state
// twice and drift if any update path forgets one of them.

// CheckStoreBodies verifies that the store's body map and its policy
// account for the same objects: the map's count and summed body bytes
// equal the policy's Len and Used.  label distinguishes multiple
// stores in violation details.
func (c *Checker) CheckStoreBodies(label string, bodies int, bodyBytes uint64, policyLen int, policyUsed uint64) {
	if c == nil {
		return
	}
	c.assertf(bodies == policyLen && bodyBytes == policyUsed, "store", "bodies-agree",
		"%s: body map holds %d objects / %d bytes, policy %d / %d", label, bodies, bodyBytes, policyLen, policyUsed)
}
