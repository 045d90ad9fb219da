package campaign_test

import (
	"bytes"
	"context"
	"testing"

	"thinunison/internal/campaign"
)

// wordRecordBytes executes sc with word-parallel execution forced on or off
// and returns its record as canonical JSONL bytes.
func wordRecordBytes(t *testing.T, sc campaign.Scenario, word bool, frontier, parallelism int) []byte {
	t.Helper()
	sc.WordParallel = word
	sc.Frontier = frontier
	sc.Parallelism = parallelism
	rec := campaign.Execute(context.Background(), sc).Canonical()
	var buf bytes.Buffer
	if err := campaign.AppendJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDifferentialWordPresets is the word-parallel slice of the differential
// harness (cmd/campaign -plane-check runs the full presets): across all
// campaign presets, schedulers, fault models, frontier modes and engine
// parallelism P ∈ {classic, 2}, the full JSONL record of a word-parallel run
// must be byte-identical to the scalar run of the same seed. Non-AU
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
		for _, sc := range scs {
			for _, mode := range []struct{ frontier, p int }{
				{-1, -1}, // shared stream, dense
				{1, -1},  // shared stream, frontier-sparse
				{-1, 2},  // per-node streams, dense
			} {
				scalar := wordRecordBytes(t, sc, false, mode.frontier, mode.p)
				word := wordRecordBytes(t, sc, true, mode.frontier, mode.p)
				if !bytes.Equal(scalar, word) {
					t.Errorf("%s scenario %d (%s/%s/%s) frontier=%d P=%d: word diverged from scalar:\nscalar: %sword:   %s",
						preset, sc.Index, sc.Family, sc.Algorithm, sc.Scheduler.Name(), mode.frontier, mode.p, scalar, word)
				}
			}
			if t.Failed() {
				return
			}
		}
	}
}
