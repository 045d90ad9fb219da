package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thinunison/internal/sim"
)

// The traced run records a span around every call the benchmark makes into
// a layer (graph, sched, core, sim, snapshot, campaign, daemon). Spans are
// kept in memory and written at exit; each layer's self time is its spans'
// durations minus what their child spans cover. Per-step calls (one engine
// step, one monitor verdict) are too many to keep: they go into fixed-bucket
// histograms and only every spanEvery-th one is kept as a span.
const spanEvery = 1024

// span is one traced call. Times are nanoseconds since the tracer started;
// Run groups the spans of one scenario, daemon run or checkpoint cycle.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerOf maps a span name ("sim.step") to its layer ("sim").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	self  map[string]time.Duration // layer → self time
	hists map[string]*hist         // span name → durations
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]time.Duration{}, hists: map[string]*hist{}}
}

// lane is one goroutine's handle on the tracer: its open-span stack and its
// local histograms and self times, folded into the tracer by close. A lane
// must not be shared between goroutines. A nil lane (from a nil tracer)
// records nothing, so the untraced and traced runs share one code path.
type lane struct {
	tr    *tracer
	run   int64
	stack []frame
	spans []span
	self  map[string]time.Duration
	hists map[string]*hist
	calls uint64
}

type frame struct {
	id    int64
	name  string
	start time.Time
	child time.Duration
}

// lane opens a lane whose spans carry the given run id.
func (t *tracer) lane(run int64) *lane {
	if t == nil {
		return nil
	}
	return &lane{tr: t, run: run, self: map[string]time.Duration{}, hists: map[string]*hist{}}
}

// hist returns the lane-local histogram for a span name.
func (l *lane) hist(name string) *hist {
	if l == nil {
		return nil
	}
	h := l.hists[name]
	if h == nil {
		h = &hist{}
		l.hists[name] = h
	}
	return h
}

func (l *lane) parent() int64 {
	if len(l.stack) == 0 {
		return 0
	}
	return l.stack[len(l.stack)-1].id
}

// begin opens a span; end closes the innermost open span and returns its
// duration.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	l.stack = append(l.stack, frame{id: l.tr.nextID.Add(1), name: name, start: time.Now()})
}

func (l *lane) end() time.Duration {
	if l == nil {
		return 0
	}
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	now := time.Now()
	d := now.Sub(f.start)
	l.self[layerOf(f.name)] += d - f.child
	if len(l.stack) > 0 {
		l.stack[len(l.stack)-1].child += d
	}
	l.hist(f.name).add(d)
	l.spans = append(l.spans, span{
		ID: f.id, Parent: l.parent(), Run: l.run, Name: f.name,
		Start: int64(f.start.Sub(l.tr.t0)), End: int64(now.Sub(l.tr.t0)),
	})
	return d
}

// call records one per-step call of duration d that started at start, into
// the histogram h (the lane's histogram for name): no allocation except on
// every spanEvery-th call, which is also kept as a span.
func (l *lane) call(h *hist, name string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	h.add(d)
	l.self[layerOf(name)] += d
	if len(l.stack) > 0 {
		l.stack[len(l.stack)-1].child += d
	}
	if l.calls++; l.calls%spanEvery == 0 {
		s := int64(start.Sub(l.tr.t0))
		l.spans = append(l.spans, span{
			ID: l.tr.nextID.Add(1), Parent: l.parent(), Run: l.run, Name: name,
			Start: s, End: s + int64(d),
		})
	}
}

// timedCond wraps a RunUntil stop condition so each engine step is timed as
// the gap between successive callbacks (sim.step) and each verdict inside
// the callback (core.good); a nil verdict never stops the run. On a nil
// lane it is the bare condition.
func (l *lane) timedCond(verdict func() bool) func(*sim.Engine) bool {
	if l == nil {
		return func(*sim.Engine) bool { return verdict != nil && verdict() }
	}
	stepH, goodH := l.hist("sim.step"), l.hist("core.good")
	var last time.Time
	return func(*sim.Engine) bool {
		t := time.Now()
		if !last.IsZero() {
			l.call(stepH, "sim.step", last, t.Sub(last))
		}
		if verdict == nil {
			last = time.Now()
			return false
		}
		ok := verdict()
		last = time.Now()
		l.call(goodH, "core.good", t, last.Sub(t))
		return ok
	}
}

// close folds the lane into its tracer.
func (l *lane) close() {
	if l == nil {
		return
	}
	t := l.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, l.spans...)
	for k, v := range l.self {
		t.self[k] += v
	}
	for k, h := range l.hists {
		if t.hists[k] == nil {
			t.hists[k] = &hist{}
		}
		t.hists[k].merge(h)
	}
	l.spans, l.self, l.hists = nil, map[string]time.Duration{}, map[string]*hist{}
}

// selfShare is the layer's share of all traced self time (0 when the
// workload never called into it).
func (t *tracer) selfShare(layer string) float64 {
	var total time.Duration
	for _, d := range t.self {
		total += d
	}
	if total == 0 {
		return 0
	}
	return float64(t.self[layer]) / float64(total)
}

// histOf returns the merged histogram of a span name (empty when absent).
func (t *tracer) histOf(name string) *hist {
	if h := t.hists[name]; h != nil {
		return h
	}
	return &hist{}
}

// layers lists every layer with traced self time, sorted.
func (t *tracer) layers() []string {
	var out []string
	for k := range t.self {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// write stores the spans, in start order, as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
