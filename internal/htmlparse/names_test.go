package htmlparse

import "testing"

// TestBalancingRuleNamesHaveIDs: every name the balancing rules mention is
// in the element table, so the fingerprint scanner's ID-indexed copies of
// the rules cover them all.
func TestBalancingRuleNamesHaveIDs(t *testing.T) {
	names := append([]string(nil), ScopeBarriers()...)
	for arriving, closes := range ImpliedCloses() {
		names = append(append(names, arriving), closes...)
	}
	for _, n := range names {
		if _, ok := ElementID(n); !ok {
			t.Errorf("balancing rule names %q, which has no element ID", n)
		}
	}
}
