package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/randx"
)

// TestE9MonitorOracle runs E9's quick sweep (D = 2, all four variants)
// through campaign.DriveAU with the MonitorOracle armed, so every poll
// cross-checks the incremental GoodMonitor verdict against a full GraphGood
// scan — on the ablated transition functions too, which no campaign
// scenario reaches. No run may report a divergence; only the variant
// without AF fault propagation may miss its budget (it deadlocks).
func TestE9MonitorOracle(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	cfg.defaults()
	rng := rand.New(randx.NewSource(cfg.Seed + 9))
	err := e9Sweep(cfg, 2, rng, campaign.Scenario{MonitorOracle: true}, func(v core.Variant, _ *core.AU, recs []campaign.Record) {
		missed := 0
		for i, rec := range recs {
			switch {
			case rec.OK:
			case strings.HasPrefix(rec.Err, "AU did not stabilize within") && v.DisableFaultPropagation:
				missed++
			default:
				t.Errorf("%s run %d: %s", v.Name(), i, rec.Err)
			}
		}
		t.Logf("%s: %d runs, %d missed the budget", v.Name(), len(recs), missed)
	})
	if err != nil {
		t.Fatal(err)
	}
}
