package daemon_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thinunison/internal/daemon"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/failpoint"
)

// awaitPolls waits until n stabilization polls have been evaluated.
func awaitPolls(t *testing.T, schedule *failpoint.Schedule, n uint64, why string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for schedule.Evals(failpoint.CampaignPoll) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d polls reached in 10s: %s", schedule.Evals(failpoint.CampaignPoll), n, why)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDaemonLoneRunUsesWholeFleet: a lone run executes on every fleet slot —
// with Fleet 2 its two workers reach two stalled polls at once.
func TestDaemonLoneRunUsesWholeFleet(t *testing.T) {
	schedule := stallPolls(t, 1, 2)
	_, c := startDaemon(t, daemon.Options{Fleet: 2})
	info, err := c.Submit(tinySpec(4, 21))
	if err != nil {
		t.Fatal(err)
	}
	awaitPolls(t, schedule, 2, "a lone run holds fewer than both slots")
	if _, err := c.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, c, info.ID); final.State != wire.StateCancelled {
		t.Fatalf("run ended %s, want cancelled", final.State)
	}
}

// TestDaemonSlotsSharedAcrossRuns: the fleet bounds scenarios across runs —
// with Fleet 1 and two admitted runs, while run A's stalled scenario holds
// the only slot, run B executes nothing; once A is cancelled, B runs to
// the same records an in-process run writes.
func TestDaemonSlotsSharedAcrossRuns(t *testing.T) {
	schedule := stallPolls(t, 1)
	_, c := startDaemon(t, daemon.Options{Fleet: 1, MaxActive: 2})
	a, err := c.Submit(tinySpec(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	awaitPolls(t, schedule, 1, "run A never started")
	specB := tinySpec(4, 32)
	b, err := c.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if st, err := c.Status(b.ID); err != nil || st.State != wire.StateRunning || st.Done != 0 {
		t.Fatalf("run B while A holds the only slot: %+v, %v; want running with no records", st, err)
	}
	if got := schedule.Evals(failpoint.CampaignPoll); got != 1 {
		t.Fatalf("%d polls while A holds the only slot, want 1", got)
	}
	if _, err := c.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, c, a.ID); final.State != wire.StateCancelled {
		t.Fatalf("run A ended %s, want cancelled", final.State)
	}
	var got bytes.Buffer
	final, err := c.Follow(context.Background(), b.ID, &got)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != wire.StateDone {
		t.Fatalf("run B ended %s (%s)", final.State, final.Err)
	}
	if !bytes.Equal(got.Bytes(), localJSONL(t, specB)) {
		t.Error("run B's records differ from an in-process run")
	}
}

// TestDaemonCancelStreamsOnlyJournal: a cancelled run streams exactly what
// its journal holds. Scenario 0 or 1 stalls while the other worker finishes
// the rest; those records lie past the gap the cancel leaves, so the
// journal skips them — and so must the event log.
func TestDaemonCancelStreamsOnlyJournal(t *testing.T) {
	state, err := os.MkdirTemp("", "unisond")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(state) })
	stallPolls(t, 1)
	_, c := startDaemon(t, daemon.Options{StateDir: state, Fleet: 2, MaxActive: 1})
	info, err := c.Submit(tinySpec(40, 13))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if _, err := c.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, c, info.ID)
	if final.State != wire.StateCancelled {
		t.Fatalf("run ended %s, want cancelled", final.State)
	}
	journal, err := os.ReadFile(filepath.Join(state, "runs", info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(journal, []byte("\n"))
	if final.Done != lines {
		t.Errorf("run reports %d records done, its journal holds %d", final.Done, lines)
	}
	var got bytes.Buffer
	if _, err := c.Attach(context.Background(), info.ID, 0, func(ev wire.Event) error {
		if ev.Type == wire.EventRecord {
			got.Write(append(ev.Record, '\n'))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), journal) {
		t.Errorf("attach from 0 streamed %d records (%d bytes), the journal holds %d (%d bytes)",
			bytes.Count(got.Bytes(), []byte("\n")), got.Len(), lines, len(journal))
	}
}

// TestDaemonStreamMatchesJournal: at every fleet size, a run's stream, its
// journal and an in-process run of the same spec are the same bytes.
func TestDaemonStreamMatchesJournal(t *testing.T) {
	spec := tinySpec(24, 9)
	want := localJSONL(t, spec)
	for _, fleet := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("fleet%d", fleet), func(t *testing.T) {
			state, err := os.MkdirTemp("", "unisond")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.RemoveAll(state) })
			_, c := startDaemon(t, daemon.Options{StateDir: state, Fleet: fleet})
			var got bytes.Buffer
			info, err := c.Run(context.Background(), spec, &got)
			if err != nil {
				t.Fatal(err)
			}
			if info.State != wire.StateDone {
				t.Fatalf("run ended %s (%s)", info.State, info.Err)
			}
			journal, err := os.ReadFile(filepath.Join(state, "runs", info.ID+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) || !bytes.Equal(journal, want) {
				t.Errorf("stream (%d bytes) or journal (%d bytes) differs from the in-process run (%d bytes)",
					got.Len(), len(journal), len(want))
			}
		})
	}
}
