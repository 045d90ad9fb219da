package campaign_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
)

// buildLog runs scenarios into a fresh ResumableLog at path (so the CRC
// sidecar exists) and returns the file bytes.
func buildLog(t *testing.T, path string, scenarios []campaign.Scenario) []byte {
	t.Helper()
	log, err := campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	runJSONL(t, scenarios, log.Append)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// corruptReopenResume corrupts the log file with mutate, reopens it, checks
// that exactly wantRecovered records survive, re-runs the rest, and asserts
// the final file is byte-identical to the uninterrupted reference — the
// detect-and-skip-then-repair contract for damage beyond clean truncation.
func corruptReopenResume(t *testing.T, mutate func([]byte) []byte, wantRecovered int) {
	t.Helper()
	scenarios := resumeScenarios(29)
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.jsonl")
	want := buildLog(t, path, scenarios)

	if err := os.WriteFile(path, mutate(bytes.Clone(want)), 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Recovered != wantRecovered {
		t.Fatalf("recovered %d records, want %d", log.Recovered, wantRecovered)
	}
	var rest []campaign.Scenario
	for _, sc := range scenarios {
		if !log.Done(sc) {
			rest = append(rest, sc)
		}
	}
	runJSONL(t, rest, log.Append)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("repaired file differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func logLines(t *testing.T, data []byte) [][]byte {
	t.Helper()
	lines := bytes.SplitAfter(data, []byte("\n"))
	return lines[:len(lines)-1]
}

// TestResumeDetectsBitFlip: a bit flipped in the middle of the file — inside
// a record that still parses as JSON — is caught by the CRC sidecar; the
// damaged suffix is re-run and the file is repaired byte-identically.
func TestResumeDetectsBitFlip(t *testing.T) {
	corruptReopenResume(t, func(data []byte) []byte {
		lines := logLines(t, data)
		// Flip a bit inside record 1's value region (clear of the line
		// structure, so json.Unmarshal still succeeds and only the CRC can
		// notice).
		target := lines[1]
		i := bytes.Index(target, []byte(`"rounds":`))
		if i < 0 {
			t.Fatal("no rounds field in record 1")
		}
		target[i+len(`"rounds":`)] ^= 0x01 // digit -> different digit
		return data
	}, 1)
}

// TestResumeInterleavedTornRecord: a record torn in the middle of the file
// with intact records after it (an interleaved tear, not a trailing one)
// invalidates everything from the tear on — the survivors before it are
// kept, the rest re-runs.
func TestResumeInterleavedTornRecord(t *testing.T) {
	corruptReopenResume(t, func(data []byte) []byte {
		lines := logLines(t, data)
		var out bytes.Buffer
		out.Write(lines[0])
		out.Write(lines[1])
		out.Write(lines[2][:len(lines[2])/2]) // tear: no newline
		for _, l := range lines[3:] {         // later records landed intact
			out.Write(l)
		}
		return out.Bytes()
	}, 2)
}

// TestResumeDetectsSplicedRecord: a record overwritten wholesale with a
// different (valid, parseable) record breaks the index contiguity or the
// CRC, never silently passing as the original.
func TestResumeDetectsSplicedRecord(t *testing.T) {
	corruptReopenResume(t, func(data []byte) []byte {
		lines := logLines(t, data)
		var out bytes.Buffer
		out.Write(lines[0])
		out.Write(lines[3]) // splice: record 3 where record 1 belongs
		for _, l := range lines[2:] {
			out.Write(l)
		}
		return out.Bytes()
	}, 1)
}

// TestResumeLostSidecar: with the sidecar deleted the log degrades to
// parse-only validation (the pre-CRC behavior) and still salvages cleanly;
// the sidecar is regenerated on reopen.
func TestResumeLostSidecar(t *testing.T) {
	scenarios := resumeScenarios(29)
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.jsonl")
	want := buildLog(t, path, scenarios)
	if err := os.Remove(path + ".crc"); err != nil {
		t.Fatal(err)
	}
	log, err := campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if log.Recovered != len(scenarios) {
		t.Fatalf("recovered %d records without sidecar, want %d", log.Recovered, len(scenarios))
	}
	if _, err := os.Stat(path + ".crc"); err != nil {
		t.Fatalf("sidecar not regenerated: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sidecar-less reopen modified the log")
	}
}

// TestKillResumeWithScenarioTimeout: a campaign with per-scenario deadlines
// armed (the -scenario-timeout boundary) killed mid-run and resumed must
// still produce a byte-identical file: cancelled records are skipped, not
// persisted, and the timeout plumbing never disturbs the resumable state.
func TestKillResumeWithScenarioTimeout(t *testing.T) {
	scenarios := resumeScenarios(31)
	for i := range scenarios {
		scenarios[i].Timeout = time.Hour // armed but never firing: deterministic
	}
	dir := t.TempDir()
	want := buildLog(t, filepath.Join(dir, "ref.jsonl"), scenarios)

	path := filepath.Join(dir, "campaign.jsonl")
	log, err := campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	emitted := 0
	var appendErr error
	// One worker: with more, the index-order reorder buffer can hold every
	// remaining scenario finished before the second OnRecord fires, so the
	// kill would land after the campaign completed. Serially at most one
	// scenario can complete past the kill.
	(&campaign.Runner{Workers: 1, OnRecord: func(rec campaign.Record) {
		if err := log.Append(rec); err != nil && appendErr == nil {
			appendErr = err
		}
		if emitted++; emitted == 2 {
			kill() // cut the campaign down mid-scenario
		}
	}}).Run(ctx, scenarios)
	kill()
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log, err = campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	var rest []campaign.Scenario
	for _, sc := range scenarios {
		if !log.Done(sc) {
			rest = append(rest, sc)
		}
	}
	if len(rest) == 0 {
		t.Fatal("kill landed after the campaign finished; nothing resumed")
	}
	runJSONL(t, rest, log.Append)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("killed+resumed file differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTimedOutRecordIsDurable: a scenario that fails its deadline produces a
// deterministic failed record that persists and counts as done on resume —
// deadline failures are not transient, so a resumed campaign must not loop
// re-running them.
func TestTimedOutRecordIsDurable(t *testing.T) {
	sc := campaign.Finalize(7, []campaign.Scenario{{
		Family: graph.FamilyRandom, N: 4000, Scheduler: campaign.RandomSubset,
		Algorithm: campaign.AlgAU, Parallelism: -1,
	}})[0]
	sc.Timeout = time.Millisecond
	rec := campaign.Execute(context.Background(), sc)
	if rec.OK {
		t.Skip("scenario finished inside 1ms; timeout not exercised")
	}

	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	log, err := campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(rec.Canonical()); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log, err = campaign.OpenResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if log.Recovered != 1 {
		t.Fatalf("recovered %d records, want 1", log.Recovered)
	}
	if !log.Done(sc) {
		t.Fatal("timed-out scenario not marked done on resume")
	}
}

// FuzzOpenResumable: arbitrary single-byte corruption of the main file (the
// sidecar stays authoritative) must never make OpenResumable return a record
// that differs from the original — every salvaged line is byte-identical to
// the line originally at its position, and the rest is truncated away.
func FuzzOpenResumable(f *testing.F) {
	scenarios := resumeScenarios(29)
	dir, err := os.MkdirTemp("", "fuzz-resume-*")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	seedPath := filepath.Join(dir, "seed.jsonl")
	log, err := campaign.OpenResumable(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	var streamErr error
	runner := &campaign.Runner{Workers: 2, OnRecord: func(rec campaign.Record) {
		if streamErr == nil {
			streamErr = log.Append(rec)
		}
	}}
	if _, err := runner.Run(context.Background(), scenarios); err != nil || streamErr != nil {
		f.Fatalf("seed campaign: %v / %v", err, streamErr)
	}
	log.Close()
	want, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	sidecar, err := os.ReadFile(seedPath + ".crc")
	if err != nil {
		f.Fatal(err)
	}
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	wantLines = wantLines[:len(wantLines)-1]

	f.Add(10, uint8(1), len(want))
	f.Add(0, uint8(0x80), 40)
	f.Add(len(want)-2, uint8(0xFF), len(want))
	f.Fuzz(func(t *testing.T, pos int, mask uint8, cut int) {
		mut := bytes.Clone(want)
		if len(mut) > 0 {
			mut[((pos%len(mut))+len(mut))%len(mut)] ^= mask
		}
		if cut = ((cut % (len(mut) + 1)) + len(mut) + 1) % (len(mut) + 1); cut < len(mut) {
			mut = mut[:cut]
		}
		sub := t.TempDir()
		path := filepath.Join(sub, "campaign.jsonl")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".crc", sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := campaign.OpenResumable(path)
		if err != nil {
			return // refusing corrupt input loudly is always acceptable
		}
		defer l.Close()
		salvaged, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(salvaged, []byte("\n"))
		lines = lines[:len(lines)-1]
		if len(lines) != l.Recovered {
			t.Fatalf("file has %d lines, Recovered = %d", len(lines), l.Recovered)
		}
		if l.Recovered > len(wantLines) {
			t.Fatalf("recovered %d records from a %d-record original", l.Recovered, len(wantLines))
		}
		for i, line := range lines {
			if !bytes.Equal(line, wantLines[i]) {
				t.Fatalf("salvaged record %d differs from original:\n%s\nvs\n%s", i, line, wantLines[i])
			}
		}
	})
}
