package campaign_test

import (
	"bytes"
	"context"
	"testing"

	"thinunison/internal/campaign"
)

// pinned returns a side that forces the frontier mode and the coin source.
func pinned(name string, frontier, parallelism int) campaign.Side {
	return campaign.LocalSide(name, 0, func(sc *campaign.Scenario) {
		sc.Frontier, sc.Parallelism = frontier, parallelism
	})
}

// frontierDifferentialScenarios selects the differential slice of a preset:
// every AU parameter point (family × scheduler × fault model) up to the
// size cap, first trial of each, plus the first MIS and LE scenario (whose
// records must be untouched by the frontier flag — the synchronous task
// drivers stay dense). The cap keeps the 10^5-node scale-sweep giants out
// of the unit-test budget while still covering every preset's scheduler and
// fault axes, including scale-sweep's 10^3-node instances.
func frontierDifferentialScenarios(t *testing.T, preset string, maxN int) []campaign.Scenario {
	t.Helper()
	all, err := campaign.Preset(preset, 99)
	if err != nil {
		t.Fatal(err)
	}
	var out []campaign.Scenario
	tasks := 0
	for _, sc := range all {
		if sc.Trial != 0 || sc.N > maxN {
			continue
		}
		switch sc.Algorithm {
		case campaign.AlgAU:
			out = append(out, sc)
		case campaign.AlgMIS, campaign.AlgLE:
			if tasks < 2 {
				out = append(out, sc)
				tasks++
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("preset %q yielded no differential scenarios under cap %d", preset, maxN)
	}
	return out
}

// TestDifferentialFrontierPresets is the frontier half of the differential
// harness: across all campaign presets (smoke, paper-table1, fault-storm,
// scale-sweep), schedulers, fault models and engine parallelism P ∈
// {classic, 1, 2, 8}, the full JSONL record of a frontier-sparse run must
// be byte-identical to the dense run of the same seed — stabilization
// rounds, steps, recovery rounds, budgets and verdicts alike.
func TestDifferentialFrontierPresets(t *testing.T) {
	maxN := 1000
	if testing.Short() {
		maxN = 96
	}
	for _, preset := range campaign.Presets() {
		cap := maxN
		if preset == "scale-sweep" {
			// The preset's smallest instances are 10^3 nodes; keep them even
			// under -short so every preset stays covered.
			cap = 1000
		}
		scs := frontierDifferentialScenarios(t, preset, cap)
		// P = -1 draws from the shared rng stream; P >= 1 from per-(step,
		// node) streams.
		for _, p := range []int{-1, 1, 2, 8} {
			var out bytes.Buffer
			if campaign.Differential(context.Background(), &out, scs, pinned("dense", -1, p), pinned("frontier", 1, p)) > 0 {
				t.Fatalf("%s P=%d: frontier diverged from dense:\n%s", preset, p, out.String())
			}
		}
	}
}
