package main

import (
	"bytes"
	"context"
	"time"

	"thinunison/internal/campaign"
)

// sweepPresets are the presets of presets-sweep: many small runs, so the
// Runner's fan-out and tail, graph build, record encoding and the
// syncsim/asyncsim MIS/LE paths dominate rather than engine steps.
var sweepPresets = []string{"smoke", "paper-table1", "fault-storm", "bio-churn"}

// canonicalLines encodes records in their byte-comparable form, one JSONL
// line each.
func canonicalLines(recs []campaign.Record) ([][]byte, error) {
	c := make([]campaign.Record, len(recs))
	for i, r := range recs {
		c[i] = r.Canonical()
	}
	var buf bytes.Buffer
	if err := campaign.WriteJSONL(&buf, c); err != nil {
		return nil, err
	}
	return bytes.SplitAfter(buf.Bytes(), []byte("\n"))[:len(recs)], nil
}

// runPresets is the presets-sweep workload, a closed loop: the four presets
// at consecutive seeds from the workload seed, one Runner.Run per (preset,
// seed), until the measured time is up. Set-up runs the first seed's
// presets at Workers=1; the timed run of that seed must reproduce those
// records byte for byte in Canonical form.
func runPresets(b *bench) error {
	ctx := context.Background()
	var ref map[string][][]byte
	release, err := b.setup(func() (func(), error) {
		next := map[string][][]byte{}
		for _, p := range sweepPresets {
			scs, err := campaign.Preset(p, b.seed)
			if err != nil {
				return nil, err
			}
			recs, err := (&campaign.Runner{Workers: 1, EngineMetrics: true}).Run(ctx, scs)
			if err != nil {
				return nil, err
			}
			if next[p], err = canonicalLines(recs); err != nil {
				return nil, err
			}
		}
		for p, lines := range ref {
			if !bytes.Equal(bytes.Join(lines, nil), bytes.Join(next[p], nil)) {
				b.problem("%s seed %d: Workers=1 runs differ between set-up repetitions", p, b.seed)
			}
		}
		ref = next
		return nil, nil
	})
	defer release()
	if err != nil {
		return err
	}

	type batch struct {
		preset string
		seed   int64
		recs   []campaign.Record // kept on traced runs only, for the replay
	}
	var (
		batches    []batch
		wall       time.Duration
		scenarioMS = samples{unit: unitMS}
		activated  float64
		busyMS     float64
		algMS      = map[string]float64{}
	)
	start := time.Now()
	for s := b.seed; len(batches) == 0 || time.Since(start) < b.seconds; s++ {
		for _, p := range sweepPresets {
			t := time.Now()
			scs, err := campaign.Preset(p, s)
			if err != nil {
				return err
			}
			recs, err := (&campaign.Runner{Workers: b.workers, Timing: true, EngineMetrics: true}).Run(ctx, scs)
			wall += time.Since(t)
			if err != nil {
				return err
			}
			var lines [][]byte
			if s == b.seed {
				if lines, err = canonicalLines(recs); err != nil {
					return err
				}
				if len(lines) != len(ref[p]) {
					b.problem("%s seed %d: %d records, Workers=1 reference has %d", p, s, len(lines), len(ref[p]))
				}
			}
			for i, r := range recs {
				same := lines == nil || (i < len(ref[p]) && bytes.Equal(lines[i], ref[p][i]))
				b.op(r.OK && same, "%s seed %d scenario %d: ok=%v, matches Workers=1 reference=%v %s", p, s, r.Scenario, r.OK, same, r.Err)
				scenarioMS.xs = append(scenarioMS.xs, r.WallMS)
				busyMS += r.WallMS
				algMS[r.Algorithm] += r.WallMS
				if r.Engine != nil {
					activated += float64(r.Engine.Activated)
				}
			}
			bt := batch{preset: p, seed: s}
			if b.tr != nil {
				bt.recs = recs
			}
			batches = append(batches, bt)
		}
	}
	n := len(scenarioMS.xs)
	b.e2e = append(b.e2e,
		rate("throughput_per_s", float64(n), wall, n),
		scenarioMS.pct("latency_ms_p50", 50),
	)
	b.extra = append(b.extra,
		scenarioMS.pct("scenario_ms_p99", 99),
		rate("activations_per_s", activated, wall, n),
	)
	if b.tr == nil {
		return nil
	}

	for _, a := range campaign.Algorithms() {
		b.layer = append(b.layer, ratio("campaign.execute_share."+string(a), algMS[string(a)], busyMS, n))
	}
	b.layer = append(b.layer, value("campaign.worker_idle_share", unitRatio,
		1-busyMS/(inUnit(wall, unitMS)*float64(b.workers)), n))
	var items []replayItem
	for _, bt := range batches {
		scs, err := campaign.Preset(bt.preset, bt.seed)
		if err != nil {
			return err
		}
		for i, sc := range scs {
			items = append(items, replayItem{sc: sc, want: bt.recs[i], listLen: len(scs)})
		}
	}
	res := replay(b.tr, b.workers, items, b.seconds/2)
	b.replayChecks(res)
	b.layerMetrics(res.engine, overheadRatio(res))
	return nil
}

// replayChecks counts the traced replay's scenarios as operations, failing
// those whose replay diverged from the untraced record.
func (b *bench) replayChecks(res replayResult) {
	b.attempted += res.items
	b.failed += len(res.mismatches)
	for _, m := range res.mismatches {
		b.problem("%s", m)
	}
}

// overheadRatio is the traced replay's time over the untraced run's time
// for the same scenarios.
func overheadRatio(res replayResult) metric {
	return ratio("trace.overhead_ratio", float64(res.traced), float64(res.untraced), res.items)
}
