// Package daemon is the simulation-as-a-service server behind cmd/unisond:
// a long-lived process owning a bounded fleet of campaign engines, serving
// submit/attach/stream/cancel over a unix-domain socket with the
// length-prefixed JSON protocol of internal/daemon/wire.
//
// Everything the repository built so far — word-parallel engines,
// frontier sparsity, churn, checkpoint/restore, the chaos-hardened campaign
// harness — runs in-process behind a CLI; the daemon turns that library into
// a system. The design follows the daemon/thin-client split of the OCI
// runtimes and kdo's deployless remote-run UX:
//
//   - Admission control: the fleet capacity (worker slots, default NumCPU)
//     bounds how many runs execute concurrently; beyond MaxActive runs,
//     submissions queue FIFO up to MaxQueue and are then rejected loudly
//     ("busy"), never silently absorbed.
//   - Streaming with backpressure: attached clients replay the run's record
//     log from any sequence number and then follow the live tail. Record
//     events are retained and lossless (a slow or detached reader re-attaches
//     and loses nothing); per-run metrics snapshots ride a bounded
//     latest-wins side channel where a slow reader's stale frames are
//     replaced and counted (Event.Dropped) — the engines never block on a
//     reader in either case.
//   - Crash-safe run state: with a state directory, every submission persists
//     its manifest atomically (snapshot.AtomicWriteFile) and journals records
//     through campaign.OpenResumable — fsync per record, CRC sidecar, torn
//     tails truncated. A restarted daemon re-expands each manifest, salvages
//     the journal prefix, resumes incomplete runs to completion and reports
//     finished ones, and the combined journal is byte-identical to an
//     uninterrupted run (the kill-and-restart test pins this).
//   - Bounded shutdown: Shutdown stops admissions, cancels (or drains) active
//     runs, closes every connection, and waits for every goroutine within a
//     context deadline, so start/shutdown cycles leak nothing (goroutine pin
//     in the soak test, same contract as runtime.Shutdown).
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/obs"
)

// ErrBusy rejects submissions when the fleet is saturated and the admission
// queue is full.
var ErrBusy = errors.New("daemon: busy: fleet saturated and admission queue full")

// Options configures a Server.
type Options struct {
	// StateDir is the run-state directory (manifests + journals). Empty runs
	// the daemon ephemeral: no persistence, no resume after restart.
	StateDir string
	// Fleet is the engine-fleet capacity in worker slots; <= 0 means
	// runtime.NumCPU(). It bounds the total run-level fan-out.
	Fleet int
	// MaxActive bounds concurrently executing runs; <= 0 means Fleet.
	MaxActive int
	// MaxQueue bounds submissions queued beyond MaxActive; < 0 means 0
	// (reject immediately when saturated), 0 means 4*MaxActive.
	MaxQueue int
	// Retries re-executes transiently failing scenarios (see
	// campaign.RetryPolicy); 0 disables retries.
	Retries int
}

// Server is one daemon instance. Construct with New, start serving with
// Serve or ListenAndServe, stop with Shutdown (graceful) or Kill (hard).
type Server struct {
	opt Options

	mu      sync.Mutex
	ln      net.Listener
	runs    map[string]*run
	order   []string // submission order, for List
	nextID  int
	active  int
	queue   []*run
	closing bool
	conns   map[net.Conn]struct{}

	wg      sync.WaitGroup // accept loop + connection handlers + run loops
	metrics *obs.Metrics   // daemon-wide engine-counter aggregate

	shutdownReq  chan struct{}
	shutdownOnce sync.Once
	drainReq     bool
}

// New builds a server and, when a state directory is configured, loads every
// persisted run: finished runs are reported as-is, incomplete ones are queued
// for resume and picked up as soon as Serve starts admitting.
func New(opt Options) (*Server, error) {
	if opt.Fleet <= 0 {
		opt.Fleet = runtime.NumCPU()
	}
	if opt.MaxActive <= 0 {
		opt.MaxActive = opt.Fleet
	}
	switch {
	case opt.MaxQueue < 0:
		opt.MaxQueue = 0
	case opt.MaxQueue == 0:
		opt.MaxQueue = 4 * opt.MaxActive
	}
	s := &Server{
		opt:         opt,
		runs:        make(map[string]*run),
		conns:       make(map[net.Conn]struct{}),
		metrics:     &obs.Metrics{},
		shutdownReq: make(chan struct{}),
	}
	if opt.StateDir != "" {
		if err := os.MkdirAll(s.runDir(), 0o755); err != nil {
			return nil, fmt.Errorf("daemon: state dir: %w", err)
		}
		if err := s.loadState(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runDir is the per-run state subdirectory.
func (s *Server) runDir() string { return filepath.Join(s.opt.StateDir, "runs") }

func (s *Server) manifestPath(id string) string {
	return filepath.Join(s.runDir(), id+".json")
}

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.runDir(), id+".jsonl")
}

// loadState restores persisted runs after a restart. Every manifest is
// re-expanded to its scenario set and its journal salvaged through
// campaign.OpenResumable; runs with a complete record set are reported in
// their final state, the rest are queued for resume. A manifest that no
// longer expands (unknown preset after a downgrade, corrupt JSON) becomes a
// failed run rather than a silent skip: a restarted daemon must account for
// every run it ever admitted.
func (s *Server) loadState() error {
	entries, err := os.ReadDir(s.runDir())
	if err != nil {
		return fmt.Errorf("daemon: read state dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || e.IsDir() {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric order for daemon-assigned IDs (r1, r2, … r10), lexical for
		// the rest, so resume admission matches submission order.
		ni, iok := numericID(ids[i])
		nj, jok := numericID(ids[j])
		if iok && jok {
			return ni < nj
		}
		if iok != jok {
			return iok
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		if n, ok := numericID(id); ok && n >= s.nextID {
			s.nextID = n + 1
		}
		r, err := s.restoreRun(id)
		if err != nil {
			r = s.deadRun(id, err)
		}
		s.runs[id] = r
		s.order = append(s.order, id)
		if r.stateLocked() == wire.StateQueued {
			s.queue = append(s.queue, r)
		}
	}
	return nil
}

// numericID parses a daemon-assigned run ID ("r42" → 42).
func numericID(id string) (int, bool) {
	if !strings.HasPrefix(id, "r") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Serve starts accepting connections on ln (which the server now owns) and
// begins admitting queued runs. It returns immediately; the accept loop runs
// in the background until Shutdown or Kill.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.admitLocked()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

// ListenAndServe listens on a unix-domain socket at path and serves on it. A
// stale socket file from a dead daemon is removed first.
func (s *Server) ListenAndServe(path string) error {
	if _, err := os.Stat(path); err == nil {
		// Probe: a connectable socket means a live daemon; refuse to hijack.
		if c, err := net.DialTimeout("unix", path, time.Second); err == nil {
			c.Close()
			return fmt.Errorf("daemon: socket %s already served by a live daemon", path)
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("daemon: remove stale socket: %w", err)
		}
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return fmt.Errorf("daemon: listen %s: %w", path, err)
	}
	s.Serve(ln)
	return nil
}

// Metrics exposes the daemon-wide engine-counter aggregate (every finished
// scenario's snapshot folded in), for obs.Publish / the -debug-addr endpoint.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// ShutdownRequested is closed when a client issues the shutdown op; the
// daemon main selects on it next to its signal channel. Drain reports whether
// that request asked for a drain.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdownReq }

// DrainRequested reports whether the shutdown op asked to finish active runs
// rather than cancel them.
func (s *Server) DrainRequested() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainReq
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// dropConn unregisters and closes a connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// handle serves one connection: one request, one response, and for attach a
// following event stream. Connections are cheap on a unix socket, and
// one-request-per-connection keeps every stream linear.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	req, err := wire.ReadRequest(conn)
	if err != nil {
		// Garbage, truncation or version skew: answer loudly if the pipe
		// still works, then hang up. Never panic, never stay silent.
		_ = wire.WriteFrame(conn, wire.Response{Err: err.Error()})
		return
	}
	switch req.Op {
	case wire.OpPing:
		_ = wire.WriteFrame(conn, wire.Response{OK: true})
	case wire.OpSubmit:
		s.handleSubmit(conn, req)
	case wire.OpAttach:
		s.handleAttach(conn, req)
	case wire.OpCancel:
		s.handleCancel(conn, req)
	case wire.OpStatus:
		s.handleStatus(conn, req)
	case wire.OpList:
		s.handleList(conn)
	case wire.OpMetrics:
		snap := s.metrics.Snapshot()
		_ = wire.WriteFrame(conn, wire.Response{OK: true, Metrics: &snap})
	case wire.OpShutdown:
		s.mu.Lock()
		s.drainReq = s.drainReq || req.Drain
		s.mu.Unlock()
		_ = wire.WriteFrame(conn, wire.Response{OK: true})
		s.shutdownOnce.Do(func() { close(s.shutdownReq) })
	default:
		_ = wire.WriteFrame(conn, wire.Response{Err: fmt.Sprintf("daemon: unknown op %q", req.Op)})
	}
}

func (s *Server) handleSubmit(conn net.Conn, req wire.Request) {
	if req.Submit == nil {
		_ = wire.WriteFrame(conn, wire.Response{Err: "daemon: submit without submission"})
		return
	}
	info, err := s.Submit(*req.Submit)
	if err != nil {
		_ = wire.WriteFrame(conn, wire.Response{Err: err.Error()})
		return
	}
	_ = wire.WriteFrame(conn, wire.Response{OK: true, Run: &info})
}

// Submit validates, persists and admits one run submission. It is exported
// for in-process embedding in tests; clients, the remote cell of
// cmd/campaign -check included, reach it through the socket handler.
func (s *Server) Submit(spec wire.SubmitSpec) (wire.RunInfo, error) {
	scenarios, err := spec.Scenarios()
	if err != nil {
		return wire.RunInfo{}, err
	}
	if len(scenarios) == 0 {
		return wire.RunInfo{}, errors.New("daemon: submission expands to zero scenarios")
	}
	if spec.ID != "" && !validRunID(spec.ID) {
		return wire.RunInfo{}, fmt.Errorf("daemon: bad run id %q (want [a-z0-9-]+)", spec.ID)
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return wire.RunInfo{}, errors.New("daemon: shutting down")
	}
	// Admission control happens before any state is persisted: a rejected
	// submission leaves no manifest behind.
	if s.active >= s.opt.MaxActive && len(s.queue) >= s.opt.MaxQueue {
		s.mu.Unlock()
		return wire.RunInfo{}, ErrBusy
	}
	id := spec.ID
	if id == "" {
		id = "r" + strconv.Itoa(s.nextID)
		s.nextID++
	} else if _, dup := s.runs[id]; dup {
		s.mu.Unlock()
		return wire.RunInfo{}, fmt.Errorf("daemon: run %q already exists", id)
	}
	spec.ID = id
	s.mu.Unlock()

	r, err := s.newRun(id, spec, scenarios)
	if err != nil {
		return wire.RunInfo{}, err
	}

	s.mu.Lock()
	s.runs[id] = r
	s.order = append(s.order, id)
	s.queue = append(s.queue, r)
	s.admitLocked()
	info := r.info()
	s.mu.Unlock()
	return info, nil
}

// validRunID accepts client-chosen run IDs: lowercase alphanumerics and
// dashes, so IDs are always safe as file names in the state dir.
func validRunID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// admitLocked starts queued runs while fleet slots are free. Caller holds
// s.mu. Runs admitted before Serve (restored state) stay queued until the
// listener is up, so a crashed-and-restarted daemon begins resuming exactly
// when it begins serving.
func (s *Server) admitLocked() {
	if s.ln == nil || s.closing {
		return
	}
	for len(s.queue) > 0 && s.active < s.opt.MaxActive {
		r := s.queue[0]
		s.queue = s.queue[1:]
		if s.startRun(r) {
			s.active++
		}
	}
}

// runWorkers sizes one run's run-level fan-out: its requested worker count
// clamped to the fleet, defaulting to the fleet capacity split across the
// maximum concurrent runs. Worker count never changes record bytes; the
// engines' coin source is fixed by each scenario's Parallelism (see
// campaign.Scenario), not by the fleet.
func (s *Server) runWorkers(requested int) int {
	w := requested
	if w <= 0 {
		w = s.opt.Fleet / s.opt.MaxActive
	}
	if w < 1 {
		w = 1
	}
	if w > s.opt.Fleet {
		w = s.opt.Fleet
	}
	return w
}

// startRun launches one run's executor goroutine; it reports false for a run
// cancelled while queued (whose terminal state is already settled). Caller
// holds s.mu.
func (s *Server) startRun(r *run) bool {
	ctx, cancel := context.WithCancelCause(context.Background())
	r.mu.Lock()
	if r.state != wire.StateQueued {
		r.mu.Unlock()
		cancel(nil)
		return false
	}
	r.state = wire.StateRunning
	r.cancel = cancel
	r.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		runner := &campaign.Runner{
			Workers: s.runWorkers(r.spec.Workers),
			// Timing stays off: daemon records must be byte-identical to an
			// in-process campaign run (the invariant of campaign -check's
			// remote cell), and wall time is the one nondeterministic field.
			Timing: false,
			// Engine blocks are folded into the run and daemon aggregates in
			// appendRecord, then stripped before journaling/streaming —
			// exactly the Runner's own EngineMetrics=false byte contract.
			EngineMetrics: true,
			Retry: campaign.RetryPolicy{
				Max:        s.opt.Retries,
				Backoff:    10 * time.Millisecond,
				MaxBackoff: time.Second,
			},
			OnRecord: func(rec campaign.Record) { s.appendRecord(r, rec) },
		}
		_, runErr := runner.Run(ctx, r.remaining)
		s.finishRun(r, runErr)
	}()
	return true
}

// appendRecord is the single place a run's outcome becomes durable and
// visible: called on the Runner's results goroutine, in scenario-index
// order. The engine-counter block is folded into the run's and the daemon's
// aggregates and stripped; the record is journaled (fsynced, checksummed)
// and appended to the in-memory event log; every subscriber is offered the
// fresh metrics snapshot (lossy) and woken (lossless log tail).
func (s *Server) appendRecord(r *run, rec campaign.Record) {
	if rec.Engine != nil {
		r.metrics.Add(*rec.Engine)
		s.metrics.Add(*rec.Engine)
		rec.Engine = nil
	}
	// Cancelled records carry no durable outcome: the journal skips them and
	// the scenario re-runs on resume, so streaming them would hand clients
	// records the daemon does not stand behind.
	if rec.Cancelled() {
		return
	}
	r.append(rec)
}

// finishRun resolves the run's terminal state, releases its fleet slot and
// admits the next queued run.
func (s *Server) finishRun(r *run, runErr error) {
	r.finalize(runErr)
	s.mu.Lock()
	s.active--
	s.admitLocked()
	s.mu.Unlock()
}

func (s *Server) handleCancel(conn net.Conn, req wire.Request) {
	r, err := s.lookup(req.Run)
	if err != nil {
		_ = wire.WriteFrame(conn, wire.Response{Err: err.Error()})
		return
	}
	r.requestCancel()
	info := r.info()
	_ = wire.WriteFrame(conn, wire.Response{OK: true, Run: &info})
}

func (s *Server) handleStatus(conn net.Conn, req wire.Request) {
	r, err := s.lookup(req.Run)
	if err != nil {
		_ = wire.WriteFrame(conn, wire.Response{Err: err.Error()})
		return
	}
	info := r.info()
	_ = wire.WriteFrame(conn, wire.Response{OK: true, Run: &info})
}

func (s *Server) handleList(conn net.Conn) {
	s.mu.Lock()
	infos := make([]wire.RunInfo, 0, len(s.order))
	for _, id := range s.order {
		infos = append(infos, s.runs[id].info())
	}
	s.mu.Unlock()
	_ = wire.WriteFrame(conn, wire.Response{OK: true, Runs: infos})
}

func (s *Server) lookup(id string) (*run, error) {
	if id == "" {
		return nil, errors.New("daemon: request without run id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, fmt.Errorf("daemon: unknown run %q", id)
	}
	return r, nil
}

// handleAttach streams a run to one client: a Response with the run's info,
// then the durable record log from the requested cursor, interleaved with
// lossy metrics snapshots, ending with an eof event once the run is terminal
// and the log is drained. The client detaches by closing its connection; a
// reader that blocks forever blocks only this goroutine, never the engines.
func (s *Server) handleAttach(conn net.Conn, req wire.Request) {
	r, err := s.lookup(req.Run)
	if err != nil {
		_ = wire.WriteFrame(conn, wire.Response{Err: err.Error()})
		return
	}
	info := r.info()
	if err := wire.WriteFrame(conn, wire.Response{OK: true, Run: &info}); err != nil {
		return
	}

	sub := r.subscribe()
	defer r.unsubscribe(sub)

	// Detach detection: the client writes nothing after the request, so any
	// read completion (EOF, reset) means it hung up.
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		var buf [1]byte
		for {
			if _, err := conn.Read(buf[:]); err != nil {
				return
			}
		}
	}()

	cursor := req.From
	for {
		if ev, ok := r.eventAt(cursor); ok {
			ev.Dropped = sub.dropped.Load()
			if err := wire.WriteFrame(conn, ev); err != nil {
				return
			}
			cursor++
			continue
		}
		if snap, ok := sub.take(); ok {
			ev := wire.Event{Type: wire.EventMetrics, Metrics: snap, Dropped: sub.dropped.Load()}
			if err := wire.WriteFrame(conn, ev); err != nil {
				return
			}
			continue
		}
		if r.terminal() {
			// Re-check the log: a record may have landed between eventAt and
			// the terminal transition.
			if _, ok := r.eventAt(cursor); ok {
				continue
			}
			info := r.info()
			_ = wire.WriteFrame(conn, wire.Event{
				Type: wire.EventEOF, Run: &info, Dropped: sub.dropped.Load(),
			})
			return
		}
		select {
		case <-sub.notify:
		case <-r.finished:
		case <-gone:
			return
		}
	}
}

// Shutdown stops the daemon: no new connections or submissions, queued runs
// cancelled, active runs cancelled (or, with drain, awaited) — then every
// connection is closed and every goroutine joined, bounded by ctx. Like
// runtime.Shutdown, a deadline miss leaves the remaining goroutines draining
// in the background and returns the context's cause.
func (s *Server) Shutdown(ctx context.Context, drain bool) error {
	s.mu.Lock()
	s.closing = true
	ln := s.ln
	s.ln = nil
	// Queued runs never started; cancel them in place.
	for _, r := range s.queue {
		r.requestCancel()
	}
	s.queue = nil
	var actives []*run
	for _, r := range s.runs {
		if st := r.stateLocked(); st == wire.StateRunning {
			actives = append(actives, r)
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	if drain {
		// Wait for active runs within the deadline, then cancel stragglers.
		for _, r := range actives {
			select {
			case <-r.finished:
			case <-ctx.Done():
				drain = false
			}
			if !drain {
				break
			}
		}
	}
	if !drain {
		for _, r := range actives {
			r.requestCancel()
		}
	}

	// Attached streams end on their own once runs are terminal; cut the
	// stragglers (blocked writes to slow readers) by closing their sockets.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	closeConns := func() {
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	}
	closeConns()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("daemon: shutdown: %w", context.Cause(ctx))
	}
}

// Kill hard-stops the daemon: listener closed, every run cancelled
// immediately, every connection cut, all goroutines joined. It is the
// in-process stand-in for SIGKILL in crash tests — no drain, no final
// flushes beyond what each fsynced journal append already made durable.
func (s *Server) Kill() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx, false)
}
