package campaign_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/failpoint"
	"thinunison/internal/graph"
)

// batchScenarios is k cheap scenarios: small cycles under the synchronous
// scheduler, a few microseconds each.
func batchScenarios(k int) []campaign.Scenario {
	scs := make([]campaign.Scenario, k)
	for i := range scs {
		scs[i] = campaign.Scenario{Family: graph.FamilyCycle, N: 6 + i%5, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgAU, Trial: i}
	}
	return campaign.Finalize(37, scs)
}

// batchRecords runs scenarios and returns their records in index order.
func batchRecords(t *testing.T, scenarios []campaign.Scenario) []campaign.Record {
	t.Helper()
	var recs []campaign.Record
	runJSONL(t, scenarios, func(rec campaign.Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs
}

// readLog returns a log's file and sidecar bytes.
func readLog(t *testing.T, path string) (data, crc []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crc, err = os.ReadFile(path + ".crc")
	if err != nil {
		t.Fatal(err)
	}
	return data, crc
}

// appendGroup is log.AppendBatch(recs) on the journal at path, holding the
// lines AppendBatch hands back to what they must be: exactly the bytes the
// journal gained, appended after what the caller's buffer already held.
func appendGroup(t *testing.T, log *campaign.ResumableLog, path string, recs []campaign.Record) (int, error) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const held = "held\n"
	lines := bytes.NewBufferString(held)
	n, appendErr := log.AppendBatch(lines, recs)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, kept := bytes.CutPrefix(lines.Bytes(), []byte(held))
	if want := after[len(before):]; !kept || !bytes.Equal(got, want) {
		t.Fatalf("AppendBatch handed back %q; the journal gained %q", got, want)
	}
	return n, appendErr
}

// appendEach writes recs into a fresh log at path with one Append per
// record, the reference for AppendBatch.
func appendEach(t *testing.T, path string, recs []campaign.Record) (data, crc []byte) {
	t.Helper()
	log, err := campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return readLog(t, path)
}

// TestAppendBatchMatchesAppend: one AppendBatch of k records leaves the
// file and the sidecar byte-identical to k Append calls.
func TestAppendBatchMatchesAppend(t *testing.T) {
	for _, k := range []int{1, 2, 17} {
		recs := batchRecords(t, batchScenarios(k))
		dir := t.TempDir()
		wantData, wantCRC := appendEach(t, filepath.Join(dir, "each.jsonl"), recs)

		path := filepath.Join(dir, "batch.jsonl")
		log, err := campaign.OpenResumable(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := appendGroup(t, log, path, recs)
		if err != nil || n != k {
			t.Fatalf("k=%d: AppendBatch = %d, %v; want %d, nil", k, n, err, k)
		}
		for _, sc := range batchScenarios(k) {
			if !log.Done(sc) {
				t.Fatalf("k=%d: scenario %d not done after its group", k, sc.Index)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		data, crc := readLog(t, path)
		if !bytes.Equal(data, wantData) || !bytes.Equal(crc, wantCRC) {
			t.Errorf("k=%d: AppendBatch file/sidecar differ from %d Appends (%d/%d vs %d/%d bytes)",
				k, k, len(data), len(crc), len(wantData), len(wantCRC))
		}
	}
}

// TestAppendBatchTornGroup: a group whose line write tears is cut back to
// the last record boundary and retried; a group that tears on every
// attempt is refused whole, and OpenResumable then salvages every record
// before it and nothing of it.
func TestAppendBatchTornGroup(t *testing.T) {
	recs := batchRecords(t, batchScenarios(10))
	dir := t.TempDir()
	wantData, wantCRC := appendEach(t, filepath.Join(dir, "ref.jsonl"), recs)
	head, _ := appendEach(t, filepath.Join(dir, "head.jsonl"), recs[:4])

	for _, tc := range []struct {
		name    string
		hits    []uint64 // torn attempts of the group's line write
		durable int      // records of the group made durable
	}{
		{"retried", []uint64{1}, 6},
		{"refused", []uint64{1, 2, 3}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.jsonl")
			log, err := campaign.OpenResumable(path)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := appendGroup(t, log, path, recs[:4]); err != nil || n != 4 {
				t.Fatalf("first group: %d, %v", n, err)
			}
			schedule := failpoint.New(1, []failpoint.Rule{
				{Site: failpoint.CampaignAppend, Kind: failpoint.FailTorn, Hits: tc.hits, Frac: 0.6},
			})
			failpoint.Arm(schedule)
			n, err := appendGroup(t, log, path, recs[4:])
			failpoint.Disarm()
			if n != tc.durable || (err == nil) != (tc.durable > 0) {
				t.Fatalf("torn group: AppendBatch = %d, %v; want %d durable", n, err, tc.durable)
			}
			if got := schedule.Fired(); got != uint64(len(tc.hits)) {
				t.Fatalf("failpoint fired %d times, want %d", got, len(tc.hits))
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			data, crc := readLog(t, path)
			if tc.durable > 0 {
				if !bytes.Equal(data, wantData) || !bytes.Equal(crc, wantCRC) {
					t.Fatal("retried group left a log that differs from one Append per record")
				}
				return
			}
			if !bytes.Equal(data, head) {
				t.Fatalf("refused group left %d bytes, want the %d bytes before it", len(data), len(head))
			}
			log, err = campaign.OpenResumable(path)
			if err != nil {
				t.Fatal(err)
			}
			if log.Recovered != 4 || log.TruncatedBytes != 0 {
				t.Fatalf("reopen: recovered %d, truncated %d; want 4, 0", log.Recovered, log.TruncatedBytes)
			}
			if n, err := appendGroup(t, log, path, recs[4:]); err != nil || n != 6 {
				t.Fatalf("resumed group: %d, %v", n, err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			if data, crc := readLog(t, path); !bytes.Equal(data, wantData) || !bytes.Equal(crc, wantCRC) {
				t.Fatal("resumed log differs from one Append per record")
			}
		})
	}
}

// TestAppendBatchStopsAtGap: a group is durable only up to its first gap —
// a missing index or a cancelled record — and reports exactly those
// records; a record behind the durable prefix refuses the group.
func TestAppendBatchStopsAtGap(t *testing.T) {
	scs := batchScenarios(6)
	recs := batchRecords(t, scs)
	cancelled := cancelledRecord(t, scs[2])
	dir := t.TempDir()
	head, _ := appendEach(t, filepath.Join(dir, "head.jsonl"), recs[:2])

	for _, tc := range []struct {
		name  string
		group []campaign.Record
	}{
		{"missing", []campaign.Record{recs[0], recs[1], recs[3], recs[4]}},
		{"cancelled", []campaign.Record{recs[0], recs[1], cancelled, recs[3]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.jsonl")
			log, err := campaign.OpenResumable(path)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			if n, err := appendGroup(t, log, path, tc.group); err != nil || n != 2 {
				t.Fatalf("AppendBatch = %d, %v; want 2 durable records", n, err)
			}
			if got := campaign.DurablePrefix(0, tc.group); got != 2 {
				t.Fatalf("DurablePrefix = %d, want 2", got)
			}
			if log.Done(scs[3]) {
				t.Fatal("a record past the gap counts as done")
			}
			if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, head) {
				t.Fatalf("log holds %q, want the two records before the gap (%v)", data, err)
			}
			// The gap fills, and the group after it lands.
			if n, err := appendGroup(t, log, path, recs[2:]); err != nil || n != 4 {
				t.Fatalf("group after the gap: %d, %v", n, err)
			}
			if n, err := appendGroup(t, log, path, recs[5:]); err == nil || n != 0 {
				t.Fatalf("group behind the prefix: %d, %v; want a refusal", n, err)
			}
		})
	}
}

// cancelledRecord returns sc's record cut down by cancellation mid-run: its
// first stabilization poll stalls until the context is cancelled.
func cancelledRecord(t *testing.T, sc campaign.Scenario) campaign.Record {
	t.Helper()
	schedule := failpoint.New(1, []failpoint.Rule{
		{Site: failpoint.CampaignPoll, Kind: failpoint.FailStall, Hits: []uint64{1}, Stall: time.Minute},
	})
	failpoint.Arm(schedule)
	defer failpoint.Disarm()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan campaign.Record)
	go func() { done <- campaign.ExecuteIsolated(ctx, sc) }()
	waitEvals(t, schedule, failpoint.CampaignPoll, 1)
	cancel()
	rec := <-done
	if !rec.Cancelled() {
		t.Fatalf("stalled scenario ended %+v, want a cancelled record", rec)
	}
	return rec
}

// waitEvals polls until schedule has evaluated site at least n times.
func waitEvals(t *testing.T, schedule *failpoint.Schedule, site failpoint.Site, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for schedule.Evals(site) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s evaluated %d times in 10s, want %d", site, schedule.Evals(site), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunnerSlotsBoundExecution: Runners sharing Slots execute at most
// cap(Slots) scenarios at once whatever their worker count, and a worker
// cancelled while it waits for a slot emits a cancelled record without
// executing its scenario.
func TestRunnerSlotsBoundExecution(t *testing.T) {
	schedule := failpoint.New(1, []failpoint.Rule{
		{Site: failpoint.CampaignPoll, Kind: failpoint.FailStall, Hits: []uint64{1, 2, 3}, Stall: time.Minute},
		{Site: failpoint.CampaignWorker, Kind: failpoint.FailPanic}, // counts attempts, never fires
	})
	failpoint.Arm(schedule)
	defer failpoint.Disarm()

	slots := make(chan struct{}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		recs []campaign.Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := (&campaign.Runner{Workers: 4, Slots: slots}).Run(ctx, batchScenarios(6))
		done <- result{recs, err}
	}()
	waitEvals(t, schedule, failpoint.CampaignPoll, 2)
	time.Sleep(100 * time.Millisecond)
	if got := schedule.Evals(failpoint.CampaignWorker); got != 2 {
		t.Fatalf("%d scenarios started while both slots were held, want 2", got)
	}
	cancel()
	res := <-done
	if res.err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if len(res.recs) < 2 {
		t.Fatalf("cancelled run returned %d records, want at least the 2 stalled ones", len(res.recs))
	}
	for _, rec := range res.recs {
		if !rec.Cancelled() {
			t.Errorf("scenario %d ended %q, want cancelled", rec.Scenario, rec.Err)
		}
	}
	if got := schedule.Evals(failpoint.CampaignWorker); got != 2 {
		t.Fatalf("%d scenarios executed, want 2: a worker cancelled while waiting executed its scenario", got)
	}
	if len(slots) != 0 {
		t.Fatalf("%d slot tokens still held after the run returned", len(slots))
	}
}
