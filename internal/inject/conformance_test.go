package inject

import (
	"testing"
)

// TestPolicyConformance sweeps every policy through both fault decks —
// the classic chaos deck (bit flips, rogue firmware, interrupt storms,
// MMIO errors) and the TEE deck (forged confidential-compute lifecycle
// hypercalls, wall probes) — in one campaign per policy, and asserts the
// shared containment contract for each deck's rows: the campaign
// terminates with zero failures, the policy's integrity hash never
// changes, and (under the TEE deck) the Dorami wall invariant is verified
// after every world switch.
//
// This is the table-driven conformance gate: a policy that passes here
// upholds the monitor's crash-containment contract under both ordinary
// firmware misbehavior and adversarial confidential-compute traffic.
func TestPolicyConformance(t *testing.T) {
	faults := 12
	firmwares := []string{"gosbi", "minsbi", "rtos"}
	if testing.Short() {
		faults = 6
		firmwares = []string{"gosbi"}
	}

	for _, pol := range []string{"sandbox", "keystone", "ace"} {
		rep, err := RunCampaign(CampaignConfig{
			Seed:           1,
			Platforms:      []string{"visionfive2"},
			Firmwares:      firmwares,
			Policies:       []string{pol},
			FaultsPerCombo: faults,
		})
		if err != nil {
			t.Fatalf("%s campaign: %v", pol, err)
		}
		// One subtest per deck; "chaos" names the classic deck.
		for _, d := range []struct{ name, deck string }{{"chaos", "classic"}, {"tee", "tee"}} {
			t.Run(d.name+"/"+pol, func(t *testing.T) {
				injected := 0
				for _, r := range rep.Results {
					if r.Deck != d.deck {
						continue
					}
					injected += r.Injected
					for _, f := range r.Failures {
						t.Errorf("%s/%s/%s: %s", r.Platform, r.Firmware, r.Policy, f)
					}
					if !r.HashIntact {
						t.Errorf("%s/%s/%s: monitor/policy integrity hash changed under the %s deck",
							r.Platform, r.Firmware, r.Policy, r.Deck)
					}
					if r.Deck == "tee" && r.WallChecks == 0 {
						t.Errorf("%s/%s/%s: TEE campaign verified the wall on no world switch",
							r.Platform, r.Firmware, r.Policy)
					}
				}
				if injected == 0 {
					t.Fatal("campaign injected no faults — the deck did not fire")
				}
			})
		}
	}
}
