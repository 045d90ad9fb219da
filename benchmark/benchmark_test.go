package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon/wire"
)

// tiny runs every workload in well under a second.
var tiny = sizes{
	SyncN: 3_000, RRN: 300, StragglerN: 2_000, MaxTrials: 64,
	DaemonRate: 20, DaemonSeed: 2,
	CkptN: 2_000, Futures: 2, ForkEvery: 2, ForkPeriod: 100 * time.Millisecond,
	SetupReps: 2,
}

func tinyBench(t *testing.T, traced bool) *bench {
	b := &bench{seed: 3, seconds: 300 * time.Millisecond, workers: 2, dir: t.TempDir(), sz: tiny}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// lastResult parses the JSON result line of a run's output.
func lastResult(t *testing.T, out []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny scale, untraced
// and traced, and checks that each passes its correctness checks and
// reports every declared metric with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			mode, want := "untraced", endToEnd
			if traced {
				mode, want = "traced", perLayer
			}
			t.Run(wl.name+"/"+mode, func(t *testing.T) {
				var out bytes.Buffer
				if err := runOne(&out, wl, tinyBench(t, traced), ""); err != nil {
					t.Fatalf("%v\n%s", err, out.Bytes())
				}
				res := lastResult(t, out.Bytes())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.Bytes())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				for _, line := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(line); len(f) > 0 && f[0] == wl.name && (len(f) != 5 || !strings.HasPrefix(f[4], "n=")) {
						t.Errorf("malformed metric line %q", line)
					}
				}
			})
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the binary
// reports in step with the ones BENCHMARK.json declares, and its workload
// list with the binary's.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, binary reports %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, binary reports %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, binary has %v", names, have)
	}
}

// TestFailedCheckFailsTheCommand: one failed operation makes the result
// incorrect and the run an error, while the result line is still printed.
func TestFailedCheckFailsTheCommand(t *testing.T) {
	wl := workload{name: "broken", run: func(b *bench) error {
		b.e2e = append(b.e2e,
			value("setup_s", unitS, 1, 1), value("throughput_per_s", unitPerS, 1, 1),
			value("latency_ms_p50", unitMS, 1, 1))
		b.op(true, "")
		b.op(false, "scenario %d failed", 7)
		return nil
	}}
	var out bytes.Buffer
	err := runOne(&out, wl, tinyBench(t, false), "")
	if err == nil {
		t.Fatal("a failed operation did not fail the run")
	}
	res := lastResult(t, out.Bytes())
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("result %+v", res)
	}
	if !strings.Contains(out.String(), "check failed: scenario 7 failed") {
		t.Errorf("failure not reported:\n%s", out.String())
	}
}

// TestFlippedStreamByteTripsCheck: a daemon run whose streamed records
// differ from the in-process run by one byte counts as failed.
func TestFlippedStreamByteTripsCheck(t *testing.T) {
	b := tinyBench(t, false)
	scs, err := campaign.Preset(daemonPreset, b.seed)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := (&campaign.Runner{Workers: 2}).Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	i := bytes.Index(flipped, []byte(`"rounds":`)) + len(`"rounds":`)
	flipped[i] ^= 1
	done := wire.RunInfo{ID: "r1", State: wire.StateDone}
	runs := []daemonRun{
		{seed: b.seed, info: done, lines: good},
		{seed: b.seed, info: done, lines: flipped},
	}
	if _, err := b.checkDaemonRuns(runs); err != nil {
		t.Fatal(err)
	}
	if b.attempted != 2 || b.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", b.attempted, b.failed)
	}
}

// TestFailingScenarioTripsCheck: a scenario that fails, or whose traced
// replay diverges from its record, counts as failed.
func TestFailingScenarioTripsCheck(t *testing.T) {
	scs := auRoundRobin(tiny).scenarios(5, 3)
	var recs []campaign.Record
	for _, sc := range scs {
		recs = append(recs, campaign.Execute(context.Background(), sc))
	}
	items := []replayItem{
		{sc: scs[0], want: recs[0], listLen: len(scs)},
		{sc: scs[1], want: recs[1], listLen: len(scs)},
		{sc: scs[2], want: recs[2], listLen: len(scs)},
	}
	items[1].want.Steps++ // the record claims a different trajectory
	items[2].sc.Scheduler = campaign.SchedulerSpec{Kind: "no-such-scheduler"}

	b := tinyBench(t, true)
	b.replayChecks(replay(b.tr, 2, items, time.Minute))
	if b.attempted != 3 || b.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2; problems %q", b.attempted, b.failed, b.problems)
	}
	if b.correct() {
		t.Fatal("bench reports correct after failed scenarios")
	}
}
