package campaign_test

import (
	"bytes"
	"context"
	"testing"

	"thinunison/internal/campaign"
)

// TestDifferentialWordPresets is the word-parallel slice of the differential
// harness (CI runs cmd/campaign -check's word cells on the smoke preset
// only): across all campaign presets, schedulers, fault models, frontier
// modes and engine parallelism P ∈ {classic, 2}, the full JSONL record of a
// word-parallel run must be byte-identical to the scalar run of the same
// seed. Non-AU
// scenarios (MIS, LE) and coin-driven AU variants have no word kernel and
// fall back to scalar on the word side, so they degenerate to replay checks
// — the flag must still never change their bytes.
func TestDifferentialWordPresets(t *testing.T) {
	maxN := 1000
	if testing.Short() {
		maxN = 96
	}
	for _, preset := range campaign.Presets() {
		cap := maxN
		if preset == "scale-sweep" {
			cap = 1000
		}
		scs := frontierDifferentialScenarios(t, preset, cap)
		for _, mode := range []struct{ frontier, p int }{
			{-1, -1}, // shared stream, dense
			{1, -1},  // shared stream, frontier-sparse
			{-1, 2},  // per-node streams, dense
		} {
			side := func(name string, word bool) campaign.Side {
				return campaign.LocalSide(name, 0, func(sc *campaign.Scenario) {
					sc.WordParallel, sc.Frontier, sc.Parallelism = word, mode.frontier, mode.p
				})
			}
			var out bytes.Buffer
			if campaign.Differential(context.Background(), &out, scs, side("scalar", false), side("word", true)) > 0 {
				t.Fatalf("%s frontier=%d P=%d: word diverged from scalar:\n%s", preset, mode.frontier, mode.p, out.String())
			}
		}
	}
}
