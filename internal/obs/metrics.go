// Package obs is the engine observability layer: struct-of-atomics metric
// sets, a deterministic sampled step tracer with a fixed-size ring buffer
// (the flight recorder), and a debug HTTP endpoint (expvar + pprof).
//
// The package is deliberately a leaf: it depends only on the standard
// library so every engine layer (core, sim, asyncsim, campaign)
// can import it. Two properties are load-bearing:
//
//   - Zero allocations on the hot path, and no atomic write per step for
//     the step counters: an engine counts its steps into a plain Tally and
//     publishes it into its Metrics at call boundaries, one atomic add per
//     non-zero counter. Ring writes reuse a preallocated slice. The
//     steady-step 0 allocs/op pin holds with counters and the ring tracer
//     enabled (gated by the obs series in BENCH_hotpath.json).
//   - Determinism. Sampling is keyed by step number only — never wall
//     clock, never the rng — so attaching a tracer cannot perturb the
//     byte-identity differentials (dense vs frontier, scalar vs word,
//     churn, restore).
package obs

import (
	"expvar"
	"sync/atomic"
)

// Metrics is a struct-of-atomics metric set for one engine run (or, when
// aggregated with Add, a whole campaign). The zero value is ready to use.
// Engines publish their step counters into it from a Tally (see there for
// when they are exact); the other counters — faults, budget exhaustions,
// churn, and the GoodMonitor's transitions and promotions — are atomic adds
// or stores made where they happen.
//
// Counters fall into two classes. Trajectory counters are pure functions
// of the executed trajectory and therefore identical across engine modes
// that produce byte-identical runs (Steps, Rounds, Activated, Changes,
// TransAA/AF/FA, ChurnApplied, ChurnSkipped, Faults, MonitorPromotions,
// BudgetExhausted). Mode counters measure how the engine did the work and
// legitimately differ between modes: Evaluated, FrontierSkips,
// FrontierSize and Settled (dense evaluates every activated node and
// tracks no settlement; frontier skips settled self-loopers), CoinDraws
// (the shared stream and the per-(step,node) streams draw differently) and
// WordSteps (word-parallel only). Anything derived from Metrics that feeds
// a byte-compared record must be reduced to the trajectory class first —
// see Snapshot.Trajectory and campaign.Runner.EngineMetrics.
type Metrics struct {
	// Steps counts executed scheduler steps (sync engines: rounds).
	Steps atomic.Uint64
	// Rounds is a gauge: completed asynchronous rounds so far.
	Rounds atomic.Uint64
	// Activated counts scheduler activations (nodes selected to act).
	Activated atomic.Uint64
	// Evaluated counts guard evaluations actually performed. Under
	// frontier-sparse execution this is Activated minus skipped
	// settled self-loopers; dense modes evaluate every activation.
	Evaluated atomic.Uint64
	// Changes counts state writes that changed a node's value.
	Changes atomic.Uint64
	// TransAA/TransAF/TransFA count AlgAU transitions by shape
	// (able→able, able→faulty, faulty→able), classified by the
	// instrumented GoodMonitor.
	TransAA atomic.Uint64
	TransAF atomic.Uint64
	TransFA atomic.Uint64
	// CoinDraws counts pseudo-random draws consumed by schedulers and
	// algorithms (mode-dependent: per-(step,node) streams are reseeded for
	// every evaluation and may draw more than the shared stream).
	CoinDraws atomic.Uint64
	// Settled counts frontier settled-promotion events (a node proven
	// permanently self-looping and excluded from future evaluation).
	Settled atomic.Uint64
	// FrontierSkips counts activations skipped as settled self-loopers.
	FrontierSkips atomic.Uint64
	// FrontierSize is a gauge: current frontier occupancy (meaningful
	// only in frontier mode).
	FrontierSize atomic.Uint64
	// WordSteps counts engine steps executed on the word-parallel kernel
	// path (mode counter: scalar modes never increment it, and a
	// WordParallel engine whose algorithm offers no kernel falls back to
	// scalar without counting).
	WordSteps atomic.Uint64
	// MonitorPromotions counts GoodMonitor regime switches
	// (deferred → incremental, on the first good verdict).
	MonitorPromotions atomic.Uint64
	// ChurnApplied/ChurnSkipped count topology-churn operations
	// applied and skipped (guard-rejected).
	ChurnApplied atomic.Uint64
	ChurnSkipped atomic.Uint64
	// Faults counts injected node faults.
	Faults atomic.Uint64
	// BudgetExhausted counts RunUntil budget exhaustions.
	BudgetExhausted atomic.Uint64
	// WorkerPanics counts campaign worker panics quarantined into failed
	// records (harness counter, zeroed by Trajectory).
	WorkerPanics atomic.Uint64
	// WatchdogStalls counts per-scenario watchdog firings (no step
	// progress across consecutive intervals; harness counter, zeroed by
	// Trajectory).
	WatchdogStalls atomic.Uint64
	// RunRetries counts scenario re-executions after transient failures
	// (harness counter, zeroed by Trajectory).
	RunRetries atomic.Uint64
}

// Snapshot is a plain-value copy of a Metrics set, suitable for JSON
// encoding (campaign records, expvar) and arithmetic.
//
// BoundaryApplies has no counter behind it and is always zero: it counted
// the sharded engines' boundary-node merges, and the field stays only for
// the benchmark module, which still reads it.
type Snapshot struct {
	Steps             uint64 `json:"steps,omitempty"`
	Rounds            uint64 `json:"rounds,omitempty"`
	Activated         uint64 `json:"activated,omitempty"`
	Evaluated         uint64 `json:"evaluated,omitempty"`
	Changes           uint64 `json:"changes,omitempty"`
	TransAA           uint64 `json:"trans_aa,omitempty"`
	TransAF           uint64 `json:"trans_af,omitempty"`
	TransFA           uint64 `json:"trans_fa,omitempty"`
	CoinDraws         uint64 `json:"coin_draws,omitempty"`
	Settled           uint64 `json:"settled,omitempty"`
	FrontierSkips     uint64 `json:"frontier_skips,omitempty"`
	FrontierSize      uint64 `json:"frontier_size,omitempty"`
	WordSteps         uint64 `json:"word_steps,omitempty"`
	MonitorPromotions uint64 `json:"monitor_promotions,omitempty"`
	BoundaryApplies   uint64 `json:"boundary_applies,omitempty"`
	ChurnApplied      uint64 `json:"churn_applied,omitempty"`
	ChurnSkipped      uint64 `json:"churn_skipped,omitempty"`
	Faults            uint64 `json:"faults,omitempty"`
	BudgetExhausted   uint64 `json:"budget_exhausted,omitempty"`
	WorkerPanics      uint64 `json:"worker_panics,omitempty"`
	WatchdogStalls    uint64 `json:"watchdog_stalls,omitempty"`
	RunRetries        uint64 `json:"run_retries,omitempty"`
}

// Snapshot returns a point-in-time copy of the metric set.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Steps:             m.Steps.Load(),
		Rounds:            m.Rounds.Load(),
		Activated:         m.Activated.Load(),
		Evaluated:         m.Evaluated.Load(),
		Changes:           m.Changes.Load(),
		TransAA:           m.TransAA.Load(),
		TransAF:           m.TransAF.Load(),
		TransFA:           m.TransFA.Load(),
		CoinDraws:         m.CoinDraws.Load(),
		Settled:           m.Settled.Load(),
		FrontierSkips:     m.FrontierSkips.Load(),
		FrontierSize:      m.FrontierSize.Load(),
		WordSteps:         m.WordSteps.Load(),
		MonitorPromotions: m.MonitorPromotions.Load(),
		ChurnApplied:      m.ChurnApplied.Load(),
		ChurnSkipped:      m.ChurnSkipped.Load(),
		Faults:            m.Faults.Load(),
		BudgetExhausted:   m.BudgetExhausted.Load(),
		WorkerPanics:      m.WorkerPanics.Load(),
		WatchdogStalls:    m.WatchdogStalls.Load(),
		RunRetries:        m.RunRetries.Load(),
	}
}

// Sub returns the field-wise difference s - prev (counter deltas over an
// interval). Gauges (Rounds, FrontierSize, ChurnApplied, ChurnSkipped)
// are subtracted like counters; callers wanting the latest gauge value
// should read it from the newer snapshot.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Steps:             s.Steps - prev.Steps,
		Rounds:            s.Rounds - prev.Rounds,
		Activated:         s.Activated - prev.Activated,
		Evaluated:         s.Evaluated - prev.Evaluated,
		Changes:           s.Changes - prev.Changes,
		TransAA:           s.TransAA - prev.TransAA,
		TransAF:           s.TransAF - prev.TransAF,
		TransFA:           s.TransFA - prev.TransFA,
		CoinDraws:         s.CoinDraws - prev.CoinDraws,
		Settled:           s.Settled - prev.Settled,
		FrontierSkips:     s.FrontierSkips - prev.FrontierSkips,
		FrontierSize:      s.FrontierSize - prev.FrontierSize,
		WordSteps:         s.WordSteps - prev.WordSteps,
		MonitorPromotions: s.MonitorPromotions - prev.MonitorPromotions,
		ChurnApplied:      s.ChurnApplied - prev.ChurnApplied,
		ChurnSkipped:      s.ChurnSkipped - prev.ChurnSkipped,
		Faults:            s.Faults - prev.Faults,
		BudgetExhausted:   s.BudgetExhausted - prev.BudgetExhausted,
		WorkerPanics:      s.WorkerPanics - prev.WorkerPanics,
		WatchdogStalls:    s.WatchdogStalls - prev.WatchdogStalls,
		RunRetries:        s.RunRetries - prev.RunRetries,
	}
}

// Trajectory returns the snapshot with every mode-dependent counter zeroed,
// keeping only the counters that are pure functions of the executed
// trajectory. Differential suites byte-compare this reduction across
// execution modes (dense vs frontier, scalar vs word): equal runs must
// produce equal trajectory counters, while Evaluated, FrontierSkips,
// FrontierSize, Settled, CoinDraws and WordSteps measure how the mode did
// the work and are exempt. Harness counters (WorkerPanics, WatchdogStalls,
// RunRetries) depend on the fault schedule and retry policy, not the
// trajectory, and are zeroed too — a chaos run that converges to the same
// trajectory must byte-match an undisturbed one.
func (s Snapshot) Trajectory() Snapshot {
	s.Evaluated = 0
	s.FrontierSkips = 0
	s.FrontierSize = 0
	s.Settled = 0
	s.CoinDraws = 0
	s.WordSteps = 0
	s.WorkerPanics = 0
	s.WatchdogStalls = 0
	s.RunRetries = 0
	return s
}

// SnapshotWords is the number of counters in a Snapshot's flat word vector.
const SnapshotWords = 21

// Words flattens the snapshot into a fixed-order word vector, the
// serialization interchange form used by engine checkpoints. Keep the order
// in sync with SnapshotFromWords.
func (s Snapshot) Words() [SnapshotWords]uint64 {
	return [SnapshotWords]uint64{
		s.Steps, s.Rounds, s.Activated, s.Evaluated, s.Changes,
		s.TransAA, s.TransAF, s.TransFA, s.CoinDraws, s.Settled,
		s.FrontierSkips, s.FrontierSize, s.WordSteps, s.MonitorPromotions,
		s.ChurnApplied, s.ChurnSkipped, s.Faults, s.BudgetExhausted,
		s.WorkerPanics, s.WatchdogStalls, s.RunRetries,
	}
}

// SnapshotFromWords is the inverse of Snapshot.Words.
func SnapshotFromWords(w [SnapshotWords]uint64) Snapshot {
	return Snapshot{
		Steps: w[0], Rounds: w[1], Activated: w[2], Evaluated: w[3], Changes: w[4],
		TransAA: w[5], TransAF: w[6], TransFA: w[7], CoinDraws: w[8], Settled: w[9],
		FrontierSkips: w[10], FrontierSize: w[11], WordSteps: w[12], MonitorPromotions: w[13],
		ChurnApplied: w[14], ChurnSkipped: w[15], Faults: w[16], BudgetExhausted: w[17],
		WorkerPanics: w[18], WatchdogStalls: w[19], RunRetries: w[20],
	}
}

// Add accumulates a snapshot into the metric set. Campaign-level
// aggregates use this to fold per-run snapshots into a whole-campaign
// view (gauges become sums; document accordingly).
func (m *Metrics) Add(s Snapshot) {
	m.Steps.Add(s.Steps)
	m.Rounds.Add(s.Rounds)
	m.Activated.Add(s.Activated)
	m.Evaluated.Add(s.Evaluated)
	m.Changes.Add(s.Changes)
	m.TransAA.Add(s.TransAA)
	m.TransAF.Add(s.TransAF)
	m.TransFA.Add(s.TransFA)
	m.CoinDraws.Add(s.CoinDraws)
	m.Settled.Add(s.Settled)
	m.FrontierSkips.Add(s.FrontierSkips)
	m.FrontierSize.Add(s.FrontierSize)
	m.WordSteps.Add(s.WordSteps)
	m.MonitorPromotions.Add(s.MonitorPromotions)
	m.ChurnApplied.Add(s.ChurnApplied)
	m.ChurnSkipped.Add(s.ChurnSkipped)
	m.Faults.Add(s.Faults)
	m.BudgetExhausted.Add(s.BudgetExhausted)
	m.WorkerPanics.Add(s.WorkerPanics)
	m.WatchdogStalls.Add(s.WatchdogStalls)
	m.RunRetries.Add(s.RunRetries)
}

// Publish registers the metric set under name in expvar, serving live
// snapshots on /debug/vars. Publishing the same name twice is a no-op
// (expvar panics on duplicates; tests and repeated runs must not).
func Publish(name string, m *Metrics) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}
