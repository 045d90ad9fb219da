package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/obs"
	"thinunison/internal/snapshot"
)

// errClientCancel is the cancellation cause installed by the cancel op.
var errClientCancel = errors.New("daemon: run cancelled by client")

// run is one admitted submission: its scenario set, its durable journal, its
// in-memory event log, and the subscribers attached to it.
type run struct {
	id        string
	spec      wire.SubmitSpec
	scenarios []campaign.Scenario // full set
	remaining []campaign.Scenario // not yet durably recorded (resume tail)
	journal   *campaign.ResumableLog
	metrics   obs.Metrics // per-run engine-counter aggregate

	// The journal queue: records the Runner finished that the journal
	// goroutine has not taken yet. It holds records only while the run
	// executes.
	qmu     sync.Mutex
	queue   []campaign.Record
	qclosed bool
	qkick   chan struct{} // cap 1: wake the journal goroutine

	mu        sync.Mutex
	state     string
	log       []wire.Event // durable record prefix, seq k = scenario k-1
	failures  int
	recovered int // records salvaged from the journal on restore
	errMsg    string
	cancel    context.CancelCauseFunc
	subs      map[*subscriber]struct{}

	finished     chan struct{} // closed at the terminal transition
	finishedOnce sync.Once
}

// subscriber is one attached stream. Record delivery is cursor-based over
// the run's retained log (lossless; the reader's own pace bounds it);
// metrics snapshots go through a one-slot latest-wins buffer where an
// overwrite of an unread snapshot counts as a dropped frame. Neither path
// ever blocks the run.
type subscriber struct {
	notify  chan struct{} // cap 1: wake the stream loop
	dropped atomic.Uint64

	mu      sync.Mutex
	pending *obs.Snapshot
}

func (sub *subscriber) wake() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// offer replaces the pending metrics snapshot, counting an unread casualty.
func (sub *subscriber) offer(snap obs.Snapshot) {
	sub.mu.Lock()
	if sub.pending != nil {
		sub.dropped.Add(1)
	}
	sub.pending = &snap
	sub.mu.Unlock()
	sub.wake()
}

// take claims the pending metrics snapshot, if any.
func (sub *subscriber) take() (*obs.Snapshot, bool) {
	sub.mu.Lock()
	snap := sub.pending
	sub.pending = nil
	sub.mu.Unlock()
	return snap, snap != nil
}

// newRun builds a fresh run from a validated submission: manifest persisted
// atomically, journal opened (both only with a state dir), state queued.
func (s *Server) newRun(id string, spec wire.SubmitSpec, scenarios []campaign.Scenario) (*run, error) {
	r := &run{
		id:        id,
		spec:      spec,
		scenarios: scenarios,
		remaining: scenarios,
		qkick:     make(chan struct{}, 1),
		state:     wire.StateQueued,
		subs:      make(map[*subscriber]struct{}),
		finished:  make(chan struct{}),
	}
	if s.opt.StateDir == "" {
		return r, nil
	}
	manifest, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("daemon: marshal manifest: %w", err)
	}
	err = snapshot.AtomicWriteFile(s.manifestPath(id), func(w io.Writer) error {
		_, werr := w.Write(manifest)
		return werr
	})
	if err != nil {
		return nil, err
	}
	r.journal, err = campaign.OpenResumable(s.journalPath(id))
	if err != nil {
		os.Remove(s.manifestPath(id))
		return nil, fmt.Errorf("daemon: open journal: %w", err)
	}
	return r, nil
}

// restoreRun rebuilds one persisted run after a daemon restart: the manifest
// re-expands to the same deterministic scenario set, OpenResumable salvages
// the longest verified journal prefix (torn tails and bit rot truncated),
// the in-memory event log is rebuilt from the salvaged lines so attach
// replay works across restarts, and the run is left terminal (all records
// present) or queued for resume (the missing tail re-runs).
func (s *Server) restoreRun(id string) (*run, error) {
	manifest, err := os.ReadFile(s.manifestPath(id))
	if err != nil {
		return nil, fmt.Errorf("daemon: run %s: read manifest: %w", id, err)
	}
	var spec wire.SubmitSpec
	if err := json.Unmarshal(manifest, &spec); err != nil {
		return nil, fmt.Errorf("daemon: run %s: corrupt manifest: %w", id, err)
	}
	scenarios, err := spec.Scenarios()
	if err != nil {
		return nil, fmt.Errorf("daemon: run %s: re-expand: %w", id, err)
	}
	journal, err := campaign.OpenResumable(s.journalPath(id))
	if err != nil {
		return nil, fmt.Errorf("daemon: run %s: reopen journal: %w", id, err)
	}
	r := &run{
		id:        id,
		spec:      spec,
		scenarios: scenarios,
		journal:   journal,
		qkick:     make(chan struct{}, 1),
		state:     wire.StateQueued,
		subs:      make(map[*subscriber]struct{}),
		finished:  make(chan struct{}),
		recovered: journal.Recovered,
	}
	// Rebuild the event log from the salvaged prefix: OpenResumable already
	// truncated the file back to a verified record boundary, so its content
	// is exactly the lines to replay.
	data, err := os.ReadFile(s.journalPath(id))
	if err != nil {
		journal.Close()
		return nil, fmt.Errorf("daemon: run %s: reread journal: %w", id, err)
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // cannot happen: the salvaged prefix ends on a boundary
		}
		line := data[:nl]
		var rec campaign.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		if !rec.OK {
			r.failures++
		}
		r.log = append(r.log, wire.Event{
			Seq:    uint64(len(r.log) + 1),
			Type:   wire.EventRecord,
			Record: json.RawMessage(line),
		})
		data = data[nl+1:]
	}
	for _, sc := range scenarios {
		if !journal.Done(sc) {
			r.remaining = append(r.remaining, sc)
		}
	}
	if len(r.remaining) == 0 {
		r.settleTerminal(nil)
	}
	return r, nil
}

// deadRun accounts for a persisted run that can no longer be restored
// (unreadable manifest, failed re-expansion): it is reported failed rather
// than silently dropped.
func (s *Server) deadRun(id string, cause error) *run {
	r := &run{
		id:       id,
		state:    wire.StateFailed,
		errMsg:   cause.Error(),
		subs:     make(map[*subscriber]struct{}),
		finished: make(chan struct{}),
	}
	r.finishedOnce.Do(func() { close(r.finished) })
	return r
}

// stateLocked reads the run state under the run's own lock (callers may hold
// the server lock; the two never nest the other way).
func (r *run) stateLocked() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// info snapshots the run's client-visible state.
func (r *run) info() wire.RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return wire.RunInfo{
		ID:        r.id,
		State:     r.state,
		Preset:    r.spec.Preset,
		Seed:      r.spec.Seed,
		Scenarios: len(r.scenarios),
		Done:      len(r.log),
		Failures:  r.failures,
		Recovered: r.recovered,
		Err:       r.errMsg,
	}
}

// terminal reports whether the run has reached a final state.
func (r *run) terminal() bool {
	select {
	case <-r.finished:
		return true
	default:
		return false
	}
}

// eventAt returns the durable event at 0-based cursor, if present.
func (r *run) eventAt(cursor uint64) (wire.Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cursor >= uint64(len(r.log)) {
		return wire.Event{}, false
	}
	return r.log[cursor], true
}

func (r *run) subscribe() *subscriber {
	sub := &subscriber{notify: make(chan struct{}, 1)}
	r.mu.Lock()
	r.subs[sub] = struct{}{}
	r.mu.Unlock()
	return sub
}

func (r *run) unsubscribe(sub *subscriber) {
	r.mu.Lock()
	delete(r.subs, sub)
	r.mu.Unlock()
}

// enqueue hands one finished record to the journal goroutine without
// waiting for it. Called on the Runner's results goroutine, in
// scenario-index order.
func (r *run) enqueue(rec campaign.Record) {
	r.qmu.Lock()
	r.queue = append(r.queue, rec)
	r.qmu.Unlock()
	select {
	case r.qkick <- struct{}{}:
	default:
	}
}

// closeQueue tells the journal goroutine that no record follows the queued
// ones. Called once the Runner has returned.
func (r *run) closeQueue() {
	r.qmu.Lock()
	r.qclosed = true
	r.qmu.Unlock()
	select {
	case r.qkick <- struct{}{}:
	default:
	}
}

// journalLoop is the run's journal goroutine: it takes whatever the Runner
// queued while the previous group was being committed, commits it as one
// group, and returns once the queue is closed and drained. The queue and
// the group swap two buffers. After a journal fault it stops committing:
// the run is failed, and the harness cannot stand behind further records
// once durability is gone.
func (r *run) journalLoop() {
	var batch []campaign.Record
	ok := true
	for {
		r.qmu.Lock()
		r.queue, batch = batch[:0], r.queue
		closed := r.qclosed
		r.qmu.Unlock()
		if len(batch) > 0 {
			if ok {
				ok = r.commit(batch)
			}
			clear(batch)
			continue
		}
		if closed {
			// Runs outlive their execution: drop the queue's buffer.
			r.qmu.Lock()
			r.queue = nil
			r.qmu.Unlock()
			return
		}
		<-r.qkick
	}
}

// commit makes one group durable and then visible: the journal appends the
// group's lines with one fsync and their checksums with another
// (campaign.ResumableLog.AppendBatch), and only the records it reports
// durable join the event log — without a journal, the same contiguous
// prefix (campaign.DurablePrefix). Then every subscriber is offered the
// fresh per-run metrics snapshot (lossy) and woken (lossless log tail). It
// reports false after failing the run.
func (r *run) commit(batch []campaign.Record) bool {
	n := len(batch)
	var err error
	if r.journal != nil {
		n, err = r.journal.AppendBatch(batch)
	} else {
		r.mu.Lock()
		next := len(r.log)
		r.mu.Unlock()
		n = campaign.DurablePrefix(next, batch)
	}
	var buf bytes.Buffer
	for i, rec := range batch[:n] {
		if encErr := campaign.AppendJSONL(&buf, rec); encErr != nil {
			n, err = i, encErr
			break
		}
	}
	// The events keep their lines for the daemon's lifetime: one exact-size
	// copy per group, not the buffer's doubling slack.
	lines := bytes.Clone(buf.Bytes())
	snap := r.metrics.Snapshot()
	r.mu.Lock()
	for _, rec := range batch[:n] {
		nl := bytes.IndexByte(lines, '\n')
		r.log = append(r.log, wire.Event{
			Seq:    uint64(len(r.log) + 1),
			Type:   wire.EventRecord,
			Record: json.RawMessage(lines[:nl:nl]),
		})
		lines = lines[nl+1:]
		if !rec.OK {
			r.failures++
		}
	}
	if n > 0 {
		for sub := range r.subs {
			sub.offer(snap)
		}
	}
	r.mu.Unlock()
	if err != nil {
		r.failRun(err)
		return false
	}
	return true
}

// failRun records a run-level fault (journal write failure, encoding
// failure) and aborts the run: the harness cannot stand behind further
// records once durability is gone.
func (r *run) failRun(err error) {
	r.mu.Lock()
	if r.errMsg == "" {
		r.errMsg = err.Error()
	}
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel(err)
	}
}

// requestCancel asks the run to stop: a queued run settles cancelled in
// place, a running one has its context cut and settles when its executor
// returns. Terminal runs ignore it.
func (r *run) requestCancel() {
	r.mu.Lock()
	if r.state == wire.StateQueued {
		r.state = wire.StateCancelled
		r.mu.Unlock()
		r.settleJournal()
		r.finishedOnce.Do(func() { close(r.finished) })
		return
	}
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel(errClientCancel)
	}
}

// finalize resolves the terminal state once the executor returns.
func (r *run) finalize(runErr error) {
	r.settleTerminal(runErr)
}

// settleTerminal computes the final state, closes the journal and wakes
// every waiter. runErr is the executor's context error (nil for a run that
// ran its scenario set to the end).
func (r *run) settleTerminal(runErr error) {
	r.mu.Lock()
	switch {
	case r.errMsg != "":
		r.state = wire.StateFailed
	case runErr != nil:
		r.state = wire.StateCancelled
	case r.failures > 0:
		r.state = wire.StateFailed
		r.errMsg = fmt.Sprintf("daemon: %d of %d scenario(s) failed", r.failures, len(r.scenarios))
	default:
		r.state = wire.StateDone
	}
	r.mu.Unlock()
	r.settleJournal()
	r.finishedOnce.Do(func() { close(r.finished) })
}

// settleJournal closes the journal exactly once.
func (r *run) settleJournal() {
	r.mu.Lock()
	j := r.journal
	r.journal = nil
	r.mu.Unlock()
	if j != nil {
		j.Close()
	}
}
