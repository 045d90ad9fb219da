package daemon_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/daemonclient"
	"thinunison/internal/failpoint"
	"thinunison/internal/graph"
)

// tinySpec is a fast AU submission: trials of an 8-node cycle under the
// synchronous scheduler, each stabilizing in microseconds.
func tinySpec(trials int, seed int64) wire.SubmitSpec {
	return wire.SubmitSpec{
		Seed: seed,
		Scenario: &wire.ScenarioSpec{
			Family:    string(graph.FamilyCycle),
			N:         8,
			Scheduler: campaign.Synchronous,
			Algorithm: string(campaign.AlgAU),
			Trials:    trials,
		},
	}
}

// localJSONL is the in-process reference: the exact bytes a local campaign
// run of spec would emit, which daemon-streamed output must match.
func localJSONL(t *testing.T, spec wire.SubmitSpec) []byte {
	t.Helper()
	scs, err := spec.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runner := &campaign.Runner{
		Workers: 2,
		Timing:  false,
		OnRecord: func(rec campaign.Record) {
			if err := campaign.AppendJSONL(&buf, rec); err != nil {
				t.Error(err)
			}
		},
	}
	if _, err := runner.Run(context.Background(), scs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startDaemon brings up a served daemon on a fresh unix socket (in a short
// tempdir — unix socket paths have a ~100-byte limit, so not t.TempDir) and
// returns it with a connected client. Shutdown and cleanup are registered.
func startDaemon(t *testing.T, opt daemon.Options) (*daemon.Server, *daemonclient.Client) {
	t.Helper()
	dir, err := os.MkdirTemp("", "unisond")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	s, err := daemon.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "d.sock")
	if err := s.ListenAndServe(sock); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	return s, daemonclient.New(sock)
}

// waitState polls a run until it leaves the live states, returning its final
// info.
func waitState(t *testing.T, c *daemonclient.Client, id string) wire.RunInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != wire.StateQueued && info.State != wire.StateRunning {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s did not settle", id)
	return wire.RunInfo{}
}

// TestDaemonEndToEnd covers the whole client surface against one ephemeral
// daemon: ping, submit+follow with byte-identical streamed records, status,
// list, metrics, replay-from-cursor, and the client-visible error paths.
func TestDaemonEndToEnd(t *testing.T) {
	_, c := startDaemon(t, daemon.Options{Fleet: 4})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	spec := tinySpec(6, 42)
	want := localJSONL(t, spec)

	var got bytes.Buffer
	info, err := c.Run(context.Background(), spec, &got)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != wire.StateDone {
		t.Fatalf("run ended %s (%s)", info.State, info.Err)
	}
	if info.Scenarios != 6 || info.Done != 6 || info.Failures != 0 {
		t.Fatalf("final info %+v", info)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("daemon-streamed records differ from in-process run:\n got %q\nwant %q", got.Bytes(), want)
	}

	// Re-attach from a cursor: the stream must replay exactly the suffix.
	var tail bytes.Buffer
	if _, err := c.Attach(context.Background(), info.ID, 4, func(ev wire.Event) error {
		if ev.Type == wire.EventRecord {
			tail.Write(append(ev.Record, '\n'))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	wantTail := bytes.Join(lines[4:], nil)
	if !bytes.Equal(tail.Bytes(), wantTail) {
		t.Errorf("cursor replay differs:\n got %q\nwant %q", tail.Bytes(), wantTail)
	}

	if st, err := c.Status(info.ID); err != nil || st.State != wire.StateDone {
		t.Fatalf("status: %+v, %v", st, err)
	}
	runs, err := c.List()
	if err != nil || len(runs) != 1 || runs[0].ID != info.ID {
		t.Fatalf("list: %+v, %v", runs, err)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Steps == 0 {
		t.Error("daemon-wide metrics show zero steps after a completed run")
	}

	// Error paths: unknown run, empty submission, both preset and scenario,
	// duplicate client-chosen id, invalid id.
	if _, err := c.Status("nope"); err == nil || !strings.Contains(err.Error(), "unknown run") {
		t.Errorf("unknown run: %v", err)
	}
	if _, err := c.Submit(wire.SubmitSpec{}); err == nil || !strings.Contains(err.Error(), "empty submission") {
		t.Errorf("empty submission: %v", err)
	}
	both := tinySpec(1, 1)
	both.Preset = "smoke"
	if _, err := c.Submit(both); err == nil || !strings.Contains(err.Error(), "both a preset and a custom scenario") {
		t.Errorf("ambiguous submission: %v", err)
	}
	named := tinySpec(1, 1)
	named.ID = "Bad ID"
	if _, err := c.Submit(named); err == nil || !strings.Contains(err.Error(), "bad run id") {
		t.Errorf("invalid id: %v", err)
	}
	named.ID = "pinned"
	if _, err := c.Submit(named); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(named); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate id: %v", err)
	}
	waitState(t, c, "pinned")
}

// TestDaemonFailedRunReported: a submission whose scenarios fail (churn
// demands AlgAU) ends in the failed state with per-record failures counted —
// not silently done.
func TestDaemonFailedRunReported(t *testing.T) {
	_, c := startDaemon(t, daemon.Options{Fleet: 2})
	spec := wire.SubmitSpec{
		Seed: 3,
		Scenario: &wire.ScenarioSpec{
			Family:    string(graph.FamilyCycle),
			N:         8,
			Scheduler: campaign.Synchronous,
			Algorithm: string(campaign.AlgMIS),
			Churn:     campaign.ChurnSpec{Period: 4, Flips: 1, Events: 2},
			Trials:    2,
		},
	}
	info, err := c.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != wire.StateFailed || info.Failures != 2 {
		t.Fatalf("final info %+v, want failed with 2 failures", info)
	}
	if !strings.Contains(info.Err, "2 of 2 scenario(s) failed") {
		t.Errorf("run error %q", info.Err)
	}
}

// stallPolls arms the campaign/poll failpoint so the scenario polls at the
// given 1-based hits block (interruptibly) for up to a minute — a
// deterministic way to hold a run in the running state — and returns the
// schedule, whose Evals show how many polls have been reached.
func stallPolls(t *testing.T, hits ...uint64) *failpoint.Schedule {
	t.Helper()
	schedule := failpoint.New(0, []failpoint.Rule{
		{Site: failpoint.CampaignPoll, Kind: failpoint.FailStall, Hits: hits, Stall: time.Minute},
	})
	failpoint.Arm(schedule)
	t.Cleanup(failpoint.Disarm)
	return schedule
}

// TestDaemonAdmissionControl: with one active slot and no queue, a second
// submission while the first run executes is rejected with the busy error,
// and a cancel frees the slot.
func TestDaemonAdmissionControl(t *testing.T) {
	stallPolls(t, 1)
	_, c := startDaemon(t, daemon.Options{Fleet: 1, MaxActive: 1, MaxQueue: -1})

	held, err := c.Submit(tinySpec(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(tinySpec(1, 8)); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("saturated submit: %v, want busy", err)
	}

	// Cancel cuts the stalled run's context; the failpoint wait is
	// interruptible, so the slot frees promptly and admission resumes.
	if _, err := c.Cancel(held.ID); err != nil {
		t.Fatal(err)
	}
	info := waitState(t, c, held.ID)
	if info.State != wire.StateCancelled {
		t.Fatalf("held run ended %s", info.State)
	}
	failpoint.Disarm()
	next, err := c.Submit(tinySpec(1, 9))
	if err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
	if got := waitState(t, c, next.ID); got.State != wire.StateDone {
		t.Fatalf("post-cancel run ended %s (%s)", got.State, got.Err)
	}
}

// TestDaemonCancelQueued: cancelling a run that never left the queue settles
// it cancelled without executing anything.
func TestDaemonCancelQueued(t *testing.T) {
	stallPolls(t, 1)
	_, c := startDaemon(t, daemon.Options{Fleet: 1, MaxActive: 1})
	held, err := c.Submit(tinySpec(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(tinySpec(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Status(queued.ID); st.State != wire.StateQueued {
		t.Fatalf("second run %s, want queued", st.State)
	}
	if _, err := c.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, c, queued.ID); info.State != wire.StateCancelled || info.Done != 0 {
		t.Fatalf("queued cancel: %+v", info)
	}
	if _, err := c.Cancel(held.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, held.ID)
}

// TestDaemonShutdownOp: the client shutdown op surfaces on
// ShutdownRequested with its drain flag — the unisond main loop's signal.
func TestDaemonShutdownOp(t *testing.T) {
	s, c := startDaemon(t, daemon.Options{Fleet: 1})
	if err := c.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.ShutdownRequested():
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown op did not surface")
	}
	if !s.DrainRequested() {
		t.Fatal("drain flag lost")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx, s.DrainRequested()); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// TestDaemonSocketHijackRefused: a second daemon must refuse to steal a live
// daemon's socket, and must replace a stale one.
func TestDaemonSocketHijackRefused(t *testing.T) {
	dir, err := os.MkdirTemp("", "unisond")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")

	s1, err := daemon.New(daemon.Options{Fleet: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.ListenAndServe(sock); err != nil {
		t.Fatal(err)
	}
	s2, err := daemon.New(daemon.Options{Fleet: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.ListenAndServe(sock); err == nil || !strings.Contains(err.Error(), "live daemon") {
		t.Fatalf("hijack attempt: %v", err)
	}
	s1.Kill()

	// s1 is down but its socket file lingers: the next daemon takes over.
	s3, err := daemon.New(daemon.Options{Fleet: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.ListenAndServe(sock); err != nil {
		t.Fatalf("stale takeover: %v", err)
	}
	s3.Kill()
}

// TestDaemonGoroutinePin: repeated daemon start/serve/run/shutdown cycles
// return the process to its goroutine baseline — a long-lived host process
// embedding daemons cannot leak (same contract as runtime.Shutdown).
func TestDaemonGoroutinePin(t *testing.T) {
	baseline := gort.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		dir, err := os.MkdirTemp("", "unisond")
		if err != nil {
			t.Fatal(err)
		}
		s, err := daemon.New(daemon.Options{Fleet: 2})
		if err != nil {
			t.Fatal(err)
		}
		sock := filepath.Join(dir, "d.sock")
		if err := s.ListenAndServe(sock); err != nil {
			t.Fatal(err)
		}
		c := daemonclient.New(sock)
		if _, err := c.Run(context.Background(), tinySpec(2, int64(cycle+1)), nil); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx, false); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		cancel()
		os.RemoveAll(dir)
		if err := awaitGoroutines(baseline); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

// awaitGoroutines polls until the process goroutine count drops back to at
// most baseline (goroutine exits are asynchronous after wg release under
// -race, so a single instantaneous sample can flake).
func awaitGoroutines(baseline int) error {
	deadline := time.Now().Add(10 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		if n = gort.NumGoroutine(); n <= baseline {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%d goroutines still running (baseline %d)", n, baseline)
}

// rawAttach dials the daemon socket directly and sends an attach request,
// returning the open connection after the response frame — a client the test
// can deliberately refuse to read from.
func rawAttach(t *testing.T, sock, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.Request{V: wire.Version, Op: wire.OpAttach, Run: id}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponse(conn)
	if err != nil || !resp.OK {
		t.Fatalf("attach: %+v, %v", resp, err)
	}
	return conn
}

// TestDaemonSlowReaderBackpressure is the backpressure pin: a reader that
// stops consuming its stream mid-run must never block the engines or other
// clients — the run and a concurrently submitted run both complete while the
// reader stalls — and when it finally drains it finds dropped-frame counts
// on the lossy metrics channel.
func TestDaemonSlowReaderBackpressure(t *testing.T) {
	dir, err := os.MkdirTemp("", "unisond")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := daemon.New(daemon.Options{Fleet: 4})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "d.sock")
	if err := s.ListenAndServe(sock); err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	c := daemonclient.New(sock)

	// Enough records to overflow any socket send buffer, so the attach
	// stream's writer genuinely blocks on the stalled reader while the run
	// keeps appending (and offering metrics frames that then drop).
	big, err := c.Submit(tinySpec(1200, 5))
	if err != nil {
		t.Fatal(err)
	}
	slow := rawAttach(t, sock, big.ID)
	defer slow.Close()

	// While the slow reader stalls, another client's run must submit,
	// stream and finish untouched.
	var side bytes.Buffer
	sideInfo, err := c.Run(context.Background(), tinySpec(4, 6), &side)
	if err != nil {
		t.Fatal(err)
	}
	if sideInfo.State != wire.StateDone {
		t.Fatalf("side run ended %s while slow reader attached", sideInfo.State)
	}
	if !bytes.Equal(side.Bytes(), localJSONL(t, tinySpec(4, 6))) {
		t.Error("side run records corrupted while slow reader attached")
	}
	if got := waitState(t, c, big.ID); got.State != wire.StateDone {
		t.Fatalf("big run ended %s (%s)", got.State, got.Err)
	}

	// Drain the stalled stream: every record must still arrive in order
	// (record events are lossless), and the cumulative dropped counter must
	// show the metrics frames the reader lost to backpressure.
	var dropped uint64
	records := 0
	for {
		ev, err := wire.ReadEvent(slow)
		if err != nil {
			t.Fatalf("drain after %d records: %v", records, err)
		}
		if ev.Dropped > dropped {
			dropped = ev.Dropped
		}
		if ev.Type == wire.EventRecord {
			records++
			if int(ev.Seq) != records {
				t.Fatalf("record %d arrived with seq %d", records, ev.Seq)
			}
		}
		if ev.Type == wire.EventEOF {
			break
		}
	}
	if records != 1200 {
		t.Errorf("lossless record channel delivered %d of 1200 records", records)
	}
	if dropped == 0 {
		t.Error("slow reader saw no backpressure drops on the lossy metrics channel")
	}
}

// TestDaemonSoak is the concurrency soak (run it under -race): many clients
// submitting, following, re-attaching and cancelling against one daemon at
// once. Every run must settle, every follower must see a coherent stream,
// and shutdown afterwards must be clean.
func TestDaemonSoak(t *testing.T) {
	s, c := startDaemon(t, daemon.Options{Fleet: 4, MaxActive: 2, MaxQueue: 64})
	const clients = 8
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			errc <- func() error {
				spec := tinySpec(6, int64(100+i))
				info, err := c.Submit(spec)
				if err != nil {
					return err
				}
				switch i % 3 {
				case 0: // follower: full stream, byte-checked
					var got bytes.Buffer
					final, err := c.Follow(context.Background(), info.ID, &got)
					if err != nil {
						return err
					}
					if final.State != wire.StateDone {
						return fmt.Errorf("run %s ended %s", info.ID, final.State)
					}
				case 1: // canceller: cancel mid-flight, then verify it settled
					if _, err := c.Cancel(info.ID); err != nil {
						return err
					}
					if _, err := c.Attach(context.Background(), info.ID, 0, nil); err != nil {
						return err
					}
				case 2: // poller: status/list churn while runs execute
					for j := 0; j < 20; j++ {
						if _, err := c.Status(info.ID); err != nil {
							return err
						}
						if _, err := c.List(); err != nil {
							return err
						}
					}
					if _, err := c.Attach(context.Background(), info.ID, 0, nil); err != nil {
						return err
					}
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	runs, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != clients {
		t.Fatalf("%d runs listed, want %d", len(runs), clients)
	}
	for _, info := range runs {
		final := waitState(t, c, info.ID)
		switch final.State {
		case wire.StateDone, wire.StateCancelled:
		default:
			t.Errorf("run %s settled %s (%s)", final.ID, final.State, final.Err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx, false); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonShutdownCancelsActive: a non-drain shutdown lands inside a
// deliberately stalled scenario and still returns well within its deadline —
// the run's context cut interrupts the stall — and the daemon stops serving.
func TestDaemonShutdownCancelsActive(t *testing.T) {
	stallPolls(t, 1)
	s, c := startDaemon(t, daemon.Options{Fleet: 1, MaxActive: 1})
	if _, err := c.Submit(tinySpec(1, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(tinySpec(1, 8)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx, false); err != nil {
		t.Fatal(err)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatal("shutdown consumed the whole deadline against a minute-long stall")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}
