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
// scenario reaches. The monitor leaves its deferred full-scan regime at
// its first good verdict, which ends stabilization, so each run then takes
// two fault bursts with soaks, whose polls the incremental counters answer.
// No run may report a divergence; only the variant without AF fault
// propagation may miss its budget (it deadlocks).
func TestE9MonitorOracle(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	cfg.defaults()
	rng := rand.New(randx.NewSource(cfg.Seed + 9))
	sc := campaign.Scenario{MonitorOracle: true, Faults: campaign.FaultSpec{Count: 3, Bursts: 2, SoakRounds: 4}}
	err := e9Sweep(cfg, 2, rng, sc, func(v core.Variant, _ *core.AU, recs []campaign.Record) {
		missed := 0
		for i, rec := range recs {
			switch {
			case rec.OK:
			case v.DisableFaultPropagation && (strings.HasPrefix(rec.Err, "AU did not stabilize within") ||
				strings.HasPrefix(rec.Err, "AU did not recover from burst")):
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
