package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/daemonclient"
)

// daemonPreset is what every daemon-open submission runs: its run time
// repeats within a few percent, where smoke's varies by about ten.
const daemonPreset = "fault-storm"

// daemonRun is the client-side record of one open-loop submission.
type daemonRun struct {
	seed        int64
	due, sent   time.Time // scheduled send time; time its connection was free
	submit      time.Duration
	firstRecord time.Duration // from the submit reply to the first record
	gaps        []time.Duration
	eof         time.Time
	lines       []byte // the streamed JSONL
	info        wire.RunInfo
	err         error
}

// runDaemon is the daemon-open workload, an open loop: an in-process
// daemon.Server with a state directory (a manifest per run, fsync per
// journaled record) and the default fleet, on a unix socket, receives
// DaemonRate fault-storm submissions per second, each followed to EOF.
// Latency is measured from each submission's due time. After the timed
// phase every streamed record set must match an in-process run of the same
// spec byte for byte.
func runDaemon(b *bench) error {
	var (
		cl       *daemonclient.Client
		stateDir string
		reps     int
	)
	release, err := b.setup(func() (func(), error) {
		reps++
		stateDir = filepath.Join(b.dir, fmt.Sprintf("state-%d", reps))
		sock := filepath.Join(b.dir, fmt.Sprintf("d%d.sock", reps))
		s, err := daemon.New(daemon.Options{StateDir: stateDir})
		if err != nil {
			return nil, err
		}
		stop := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx, false) // a stuck shutdown is reported by the run's timeout, not here
		}
		if err := s.ListenAndServe(sock); err != nil {
			stop()
			return nil, err
		}
		c := daemonclient.New(sock)
		for t := time.Now(); c.Ping() != nil; time.Sleep(time.Millisecond) {
			if time.Since(t) > 10*time.Second {
				stop()
				return nil, errors.New("daemon did not answer ping within 10s")
			}
		}
		// One warm-up run through the whole service path (admission,
		// manifest, journal, stream) before anything is timed.
		info, err := c.Run(context.Background(), wire.SubmitSpec{Preset: daemonPreset, Seed: b.seed}, io.Discard)
		if err == nil && info.State != wire.StateDone {
			err = fmt.Errorf("warm-up run ended %s: %s", info.State, info.Err)
		}
		if err != nil {
			stop()
			return nil, err
		}
		cl = c
		return stop, nil
	})
	defer release()
	if err != nil {
		return err
	}

	runs := openLoop(b, cl, b.seconds, nil)
	if _, err := b.checkDaemonRuns(runs); err != nil {
		return err
	}
	st := summarize(runs)
	n := len(st.runMS.xs)
	b.e2e = append(b.e2e,
		rate("throughput_per_s", float64(n), st.last.Sub(st.first), n),
		st.runMS.pct("latency_ms_p50", 50),
	)
	b.extra = append(b.extra,
		st.runMS.pct("run_ms_p90", 90),
		st.runMS.pct("run_ms_p95", 95),
		st.lag.pct("loadgen.lag_ms_p99", 99),
		value("daemon.busy_rejections", unitCount, float64(st.busy), len(runs)),
	)
	if b.tr == nil {
		return nil
	}

	// Traced pass: the same open loop for half the time with spans around
	// every client call and a backlog poller, then journal appends of the
	// streamed records and traced replays of the submitted specs.
	var backlog int
	traced := openLoop(b, cl, b.seconds/2, &backlog)
	refs, err := b.checkDaemonRuns(traced)
	if err != nil {
		return err
	}
	tst := summarize(traced)
	untraced, _ := percentile(st.runMS.xs, 50)
	tracedP50, ok := percentile(tst.runMS.xs, 50)
	overhead := metric{Name: "trace.overhead_ratio", Unit: unitRatio, N: len(tst.runMS.xs), Measured: ok && untraced > 0}
	if overhead.Measured {
		overhead.Value = tracedP50 / untraced
	}
	b.layer = append(b.layer,
		tst.submit.pct("daemon.submit_ms_p50", 50),
		tst.submit.pct("daemon.submit_ms_p95", 95),
		tst.firstRecord.pct("daemon.first_record_ms_p50", 50),
		tst.firstRecord.pct("daemon.first_record_ms_p95", 95),
		tst.gap.pct("daemon.record_gap_ms_p50", 50),
		value("daemon.backlog_max", unitCount, float64(backlog), len(traced)),
		value("daemon.busy_rejections", unitCount, float64(tst.busy), len(traced)),
		tst.lag.pct("loadgen.lag_ms_p99", 99),
		value("loadgen.lag_ms_max", unitMS, inUnit(tst.lagMax, unitMS), len(traced)),
		value("snapshot.bytes", unitBytes, float64(dirBytes(filepath.Join(stateDir, "runs"), ".json")), len(traced)),
	)
	if err := b.journalAppends(traced); err != nil {
		return err
	}

	var items []replayItem
	for _, seed := range slices.Sorted(maps.Keys(refs)) {
		scs, err := campaign.Preset(daemonPreset, seed)
		if err != nil {
			return err
		}
		for i, sc := range scs {
			items = append(items, replayItem{sc: sc, want: refs[seed][i], listLen: len(scs)})
		}
	}
	res := replay(b.tr, b.workers, items, b.seconds/4)
	b.replayChecks(res)
	b.layerMetrics(res.engine, overhead)
	return nil
}

// loopStats summarizes one open loop from the client's side.
type loopStats struct {
	runMS, submit, firstRecord, gap, lag samples // ms
	lagMax                               time.Duration
	busy                                 int       // submissions refused as busy
	first, last                          time.Time // first due time, last EOF
}

func summarize(runs []daemonRun) loopStats {
	st := loopStats{
		runMS: samples{unit: unitMS}, submit: samples{unit: unitMS},
		firstRecord: samples{unit: unitMS}, gap: samples{unit: unitMS}, lag: samples{unit: unitMS},
	}
	for _, r := range runs {
		lag := r.sent.Sub(r.due)
		st.lag.add(lag)
		st.lagMax = max(st.lagMax, lag)
		if r.err != nil {
			if strings.Contains(r.err.Error(), daemon.ErrBusy.Error()) {
				st.busy++
			}
			continue
		}
		st.runMS.add(r.eof.Sub(r.due))
		st.submit.add(r.submit)
		st.firstRecord.add(r.firstRecord)
		for _, g := range r.gaps {
			st.gap.add(g)
		}
		if st.first.IsZero() || r.due.Before(st.first) {
			st.first = r.due
		}
		if r.eof.After(st.last) {
			st.last = r.eof
		}
	}
	return st
}

// openLoop sends DaemonRate submissions per second for the given time, each
// on its own goroutine, with at most b.workers client connections in flight
// (a submission waits for a free connection; the wait counts toward its
// latency, which runs from its due time). With backlog non-nil it also
// polls List for the peak number of queued or running runs, and on a traced
// run it records a span around every client call.
func openLoop(b *bench, cl *daemonclient.Client, seconds time.Duration, backlog *int) []daemonRun {
	n := max(1, int(b.sz.DaemonRate*seconds.Seconds()))
	runs := make([]daemonRun, n)
	conns := make(chan struct{}, b.workers) // semaphore: one slot per connection
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	if backlog != nil {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(25 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				conns <- struct{}{}
				infos, err := cl.List()
				<-conns
				if err != nil {
					continue
				}
				open := 0
				for _, in := range infos {
					if in.State == wire.StateQueued || in.State == wire.StateRunning {
						open++
					}
				}
				*backlog = max(*backlog, open)
			}
		}()
	}
	start := time.Now()
	for i := range runs {
		due := start.Add(time.Duration(float64(i) / b.sz.DaemonRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &runs[i]
			r.due, r.seed = due, b.seed+int64(i%b.sz.DaemonSeed)
			conns <- struct{}{}
			defer func() { <-conns }()
			r.sent = time.Now()
			l := b.tr.lane(int64(i))
			defer l.close()
			l.begin("daemon.submit")
			info, err := cl.Submit(wire.SubmitSpec{Preset: daemonPreset, Seed: r.seed})
			l.end()
			r.submit = time.Since(r.sent)
			if err != nil {
				r.err = err
				return
			}
			l.begin("daemon.stream")
			replied := time.Now()
			var buf bytes.Buffer
			prev := replied
			r.info, r.err = cl.Attach(context.Background(), info.ID, 0, func(ev wire.Event) error {
				if ev.Type != wire.EventRecord {
					return nil
				}
				now := time.Now()
				if buf.Len() == 0 {
					r.firstRecord = now.Sub(replied)
				} else {
					r.gaps = append(r.gaps, now.Sub(prev))
				}
				prev = now
				buf.Write(ev.Record)
				buf.WriteByte('\n')
				return nil
			})
			r.eof = time.Now()
			l.end()
			r.lines = buf.Bytes()
		}()
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	return runs
}

// checkDaemonRuns counts every submission as an operation: it fails when it
// was refused, did not end done, or streamed records that differ from an
// in-process run of the same spec. It returns those in-process records by
// seed.
func (b *bench) checkDaemonRuns(runs []daemonRun) (map[int64][]campaign.Record, error) {
	refs := map[int64][]campaign.Record{}
	want := map[int64][]byte{}
	for _, r := range runs {
		if r.err != nil {
			b.op(false, "seed %d: %v", r.seed, r.err)
			continue
		}
		if _, ok := refs[r.seed]; !ok {
			scs, err := campaign.Preset(daemonPreset, r.seed)
			if err != nil {
				return nil, err
			}
			recs, err := (&campaign.Runner{Workers: b.workers}).Run(context.Background(), scs)
			if err != nil {
				return nil, err
			}
			if want[r.seed], err = encodeRecords(recs); err != nil {
				return nil, err
			}
			refs[r.seed] = recs
		}
		same := bytes.Equal(r.lines, want[r.seed])
		b.op(r.info.State == wire.StateDone && same,
			"run %s seed %d: state %s, streamed records match an in-process run=%v", r.info.ID, r.seed, r.info.State, same)
	}
	return refs, nil
}

// journalAppends appends the records streamed by the first runs to fresh
// campaign journals (fsync per record, CRC sidecar), timing each Append.
func (b *bench) journalAppends(runs []daemonRun) error {
	l := b.tr.lane(0)
	defer l.close()
	appended := 0
	for i, r := range runs {
		if appended >= 1000 || r.err != nil {
			continue
		}
		j, err := campaign.OpenResumable(filepath.Join(b.dir, fmt.Sprintf("journal-%d.jsonl", i)))
		if err != nil {
			return err
		}
		for _, line := range bytes.SplitAfter(r.lines, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec campaign.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				j.Close()
				return err
			}
			l.begin("campaign.journal_append")
			err := j.Append(rec)
			l.end()
			if err != nil {
				j.Close()
				return err
			}
			appended++
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	h := l.hist("campaign.journal_append")
	b.layer = append(b.layer,
		h.pct("campaign.journal_append_ms_p50", unitMS, 50),
		h.pct("campaign.journal_append_ms_p95", unitMS, 95),
	)
	return nil
}

// dirBytes sums the sizes of the files in dir with the given suffix.
func dirBytes(dir, suffix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), suffix) {
			total += info.Size()
		}
	}
	return total
}
