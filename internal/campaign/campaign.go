// Package campaign is the scenario-campaign subsystem: it expands a
// declarative parameter matrix (graph family × size × diameter bound ×
// scheduler × fault model × algorithm) into concrete runs, executes them on a
// worker pool with deterministic per-scenario seeds, and streams structured
// per-run records (stabilization rounds, steps, wall time, fault-recovery
// rounds, budget headroom) for JSONL/CSV export and statistical aggregation.
//
// It is the repository's entry point for sweeps: the cmd/campaign CLI runs
// its workloads through it, and so do experiments E1–E3 of the experiment
// harness (internal/experiments). It also holds the one driver of each
// algorithm: MISTask and LETask build MIS and LE runs, plain or through the
// synchronizer, and DriveAU drives a built AlgAU engine. The root facade's
// solvers and experiments E4, E6, E9 and F2 run through them; E5, E7 and E8
// drive the engines directly. Every run is reproducible — the campaign seed
// and the scenario's position determine all randomness, independent of the
// worker count and goroutine interleaving.
package campaign

import (
	"fmt"
	"io"
	"time"

	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sched"
)

// Algorithm selects which self-stabilizing task a scenario runs.
type Algorithm string

// The supported algorithms. The plain MIS/LE variants are the synchronous
// programs of Sec. 3 and only pair with the synchronous scheduler; the
// synchronized variants run the same programs through the Corollary 1.2
// synchronizer and pair with any scheduler.
const (
	AlgAU      Algorithm = "au"
	AlgMIS     Algorithm = "mis"
	AlgLE      Algorithm = "le"
	AlgSyncMIS Algorithm = "sync-mis"
	AlgSyncLE  Algorithm = "sync-le"
)

// Algorithms returns every supported algorithm, in a fixed order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgAU, AlgMIS, AlgLE, AlgSyncMIS, AlgSyncLE}
}

// ParseAlgorithm resolves an algorithm name from a spec or CLI flag.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == name {
			return a, nil
		}
	}
	return "", fmt.Errorf("campaign: unknown algorithm %q", name)
}

// SchedulerSpec is a declarative scheduler description. Scheduler values in
// package sched are stateful and cannot be shared across concurrent runs, so
// scenarios carry specs and every run builds its own instance.
type SchedulerSpec struct {
	// Kind is one of "synchronous", "round-robin", "random-subset",
	// "laggard", "permuted".
	Kind string `json:"kind"`
	// P is the random-subset inclusion probability (default 0.35).
	P float64 `json:"p,omitempty"`
	// MaxGap is the random-subset starvation bound (default 16).
	MaxGap int `json:"max_gap,omitempty"`
	// Victim and Period parameterize the laggard (defaults 0 and 3).
	Victim int `json:"victim,omitempty"`
	Period int `json:"period,omitempty"`
}

// Named scheduler spec constructors.
var (
	Synchronous  = SchedulerSpec{Kind: "synchronous"}
	RoundRobin   = SchedulerSpec{Kind: "round-robin"}
	RandomSubset = SchedulerSpec{Kind: "random-subset", P: 0.35, MaxGap: 16}
	Laggard      = SchedulerSpec{Kind: "laggard", Victim: 0, Period: 3}
	Permuted     = SchedulerSpec{Kind: "permuted"}
)

// effective returns the spec with defaults applied — the parameters Build
// actually uses, which Name must also report.
func (s SchedulerSpec) effective() SchedulerSpec {
	if s.Kind == "" {
		s.Kind = "synchronous"
	}
	if s.Kind == "random-subset" {
		if s.P <= 0 || s.P > 1 {
			s.P = 0.35
		}
		if s.MaxGap <= 0 {
			s.MaxGap = 16
		}
	}
	if s.Kind == "laggard" && s.Period <= 0 {
		s.Period = 3
	}
	return s
}

// Build instantiates a fresh scheduler for one run, seeding any internal
// randomness from seed. The stochastic schedulers use the seeded
// constructors, which own their rng and implement sched.Checkpointer, so
// campaign runs are checkpointable.
func (s SchedulerSpec) Build(seed int64) (sched.Scheduler, error) {
	s = s.effective()
	switch s.Kind {
	case "synchronous":
		return sched.NewSynchronous(), nil
	case "round-robin":
		return sched.NewRoundRobin(), nil
	case "random-subset":
		return sched.NewRandomSubsetSeeded(s.P, s.MaxGap, seed), nil
	case "laggard":
		return sched.NewLaggard(s.Victim, s.Period), nil
	case "permuted":
		return sched.NewPermutedSeeded(seed), nil
	default:
		return nil, fmt.Errorf("campaign: unknown scheduler kind %q", s.Kind)
	}
}

// Name returns the stable identifier used in records and aggregation keys.
// It encodes the effective parameters, so differently parameterized
// schedulers of the same kind stay distinguishable in the output.
func (s SchedulerSpec) Name() string {
	s = s.effective()
	switch s.Kind {
	case "random-subset":
		return fmt.Sprintf("random-subset(p=%g,gap=%d)", s.P, s.MaxGap)
	case "laggard":
		return fmt.Sprintf("laggard(victim=%d,period=%d)", s.Victim, s.Period)
	default:
		return s.Kind
	}
}

// IsSynchronous reports whether the spec is the synchronous schedule, the
// only one the plain (non-synchronized) MIS/LE programs admit.
func (s SchedulerSpec) IsSynchronous() bool {
	return s.Kind == "" || s.Kind == "synchronous"
}

// FaultSpec describes transient-fault injection: after the run first
// stabilizes, Bursts bursts of Count random node corruptions are injected,
// measuring the recovery rounds of each.
type FaultSpec struct {
	// Count is the number of nodes corrupted per burst (clamped to [0, n];
	// 0 disables injection).
	Count int `json:"count,omitempty"`
	// Bursts is the number of bursts (default 1 when Count > 0).
	Bursts int `json:"bursts,omitempty"`
	// SoakRounds inserts a steady-state stretch of that many rounds after
	// the initial stabilization and after every burst recovery (AU
	// scenarios). This models the regime the paper's workloads live in —
	// long quiescent stretches punctuated by fault storms — and is where
	// frontier-sparse execution pays: a quiescent soak step costs
	// O(|frontier|) instead of Θ(n). 0 disables soaking.
	SoakRounds int `json:"soak_rounds,omitempty"`
}

// ChurnSpec describes mid-run topology churn for a scenario (AlgAU only —
// the synchronous-task drivers keep their topology frozen): every Period
// steps the engine flips Flips random edges and crashes Crash random nodes
// (reviving the previous event's victims), for Events events, after which
// the topology quiesces so the stabilization guarantee applies to the final
// graph. All destructive ops are guarded — the alive nodes stay connected
// and the double-sweep diameter upper bound stays within the (churn-
// margined) algorithm parameter — so records remain deterministic and the
// run remains inside the graph class the algorithm is designed for.
type ChurnSpec struct {
	// Period is the number of steps between churn events (0 disables churn).
	Period int `json:"period,omitempty"`
	// Flips is the number of random edge flips per event.
	Flips int `json:"flips,omitempty"`
	// Crash is the number of random node crashes per event; victims revive
	// at the next event (cells die and divide back into the tissue).
	Crash int `json:"crash,omitempty"`
	// Events bounds the number of churn events (0 = unbounded; presets use
	// finite values so runs eventually stabilize within budget).
	Events int `json:"events,omitempty"`
}

// active reports whether the spec mutates anything.
func (c ChurnSpec) active() bool { return c.Period > 0 && (c.Flips > 0 || c.Crash > 0) }

// Name returns the stable identifier used in records ("" when inactive).
func (c ChurnSpec) Name() string {
	if !c.active() {
		return ""
	}
	return fmt.Sprintf("churn(period=%d,flips=%d,crash=%d,events=%d)", c.Period, c.Flips, c.Crash, c.Events)
}

// ObsSpec configures step tracing and flight recording for a scenario's
// engines. It is sharing-safe: every run builds its own obs.Tracer, so one
// spec value may be stamped onto all scenarios of a campaign. Tracing is
// sampled by deterministic step numbers only and therefore never perturbs
// the run — traced records are byte-identical to untraced ones (minus the
// engine block, which the Runner strips by default).
type ObsSpec struct {
	// TraceEvery emits every TraceEvery-th step sample to Sink; <= 0
	// disables sink emission (the flight ring still records every step).
	TraceEvery int
	// Sink receives sampled steps. It is shared by all concurrently
	// running scenarios, so it must be safe for concurrent use
	// (obs.JSONL locks internally; obs.Mem too).
	Sink obs.Sink
	// FlightRing is the flight-recorder depth (last-N steps retained);
	// <= 0 means obs.DefaultRing.
	FlightRing int
	// Flight, when set, receives a flight-recorder dump (reason header +
	// ring JSONL) whenever a run fails — budget exhaustion, monitor-oracle
	// divergence, failed burst recovery — or, with FlightAlways, after
	// every run. Dumps are single buffered writes, but writers shared
	// across Runner workers should still serialize (see obs.LockedWriter).
	Flight io.Writer
	// FlightAlways dumps the flight ring after successful runs too.
	FlightAlways bool
}

// Scenario is one concrete run: a point of the expanded matrix together with
// its deterministic seed.
type Scenario struct {
	// Index is the scenario's position in the campaign; records are emitted
	// in Index order regardless of which worker finishes first.
	Index int
	// Family, N and D select the graph: an n-node member of the family,
	// with D the diameter parameter for FamilyBoundedD construction. D = 0
	// means "the graph's own diameter" for the algorithm parameter.
	Family graph.Family
	N      int
	D      int
	// Scheduler, Algorithm, Faults and Churn select the workload.
	Scheduler SchedulerSpec
	Algorithm Algorithm
	Faults    FaultSpec
	Churn     ChurnSpec
	// Trial distinguishes repeated runs of the same parameter point.
	Trial int
	// Seed drives all randomness of the run (graph construction, initial
	// configuration, coin tosses, scheduler); it is derived from the
	// campaign seed and Index, so equal campaigns replay byte-identically.
	Seed int64
	// Parallelism selects the coin source of the MIS/LE engine (see
	// asyncsim.NewParallel). Positive values are interchangeable: each
	// draws node v's coins at step t from a per-(step, node) stream. A
	// negative value forces the engine's shared stream. Zero (the default)
	// picks by size: per-node streams when N >= ShardThreshold, the shared
	// stream below it. The choice depends only on the scenario, so records
	// stay machine-independent, but the sign shows in MIS and LE records.
	// The AU engine has one coin stream and ignores it, so AU records are
	// the same at every value.
	Parallelism int
	// Frontier selects the AU engine's frontier-sparse execution mode:
	// > 0 forces it on, < 0 forces dense execution, and 0 (the default)
	// auto-enables it. Frontier runs are byte-identical to dense runs for
	// equal seeds at every parallelism — enforced by the differential
	// harness and by cmd/campaign -check frontier — so the knob never
	// changes record bytes, only wall time: near-quiescent schedules
	// (round-robin, laggard) skip settled nodes wholesale instead of
	// re-deriving Θ(n) no-op transitions per step.
	Frontier int
	// WordParallel, when set, asks the AU engines for bit-planed batch
	// transition evaluation (see sim.Options.WordParallel). Word-parallel
	// runs are byte-identical to scalar runs for equal seeds — enforced by
	// the engine differential suite and by cmd/campaign -check word — so
	// the knob never changes record bytes, only wall time. Default off:
	// committed campaign records predate the word path and must stay
	// stable. The engine silently falls back to scalar execution when the
	// algorithm offers no word kernel (coin-driven variants, |Q| > 64).
	WordParallel bool
	// MonitorOracle, when set, cross-checks the incremental GoodMonitor
	// verdict against the full-scan GraphGood oracle at every stabilization
	// poll, failing the record on divergence. It costs O(n·Δ) per step —
	// it exists for the differential guard (cmd/campaign -check arms it on
	// every local side), not for production sweeps — and never changes
	// record bytes while the verdicts agree.
	MonitorOracle bool
	// Obs, when set, attaches sampled step tracing and flight recording
	// to the run's engine. Sampling is keyed by step number, so records
	// (minus the engine block) stay byte-identical with tracing on — the
	// differential CI modes run with tracing attached to enforce exactly
	// that.
	Obs *ObsSpec
	// Timeout, when positive, bounds the scenario's wall-clock run time
	// with a per-scenario context deadline (cmd/campaign
	// -scenario-timeout). A timed-out run fails with a deterministic
	// "scenario timeout" error; it is not a transient fault and is never
	// retried.
	Timeout time.Duration
	// Watchdog, when positive, arms a per-scenario stall detector: if the
	// engine makes no step progress (obs.Metrics) across two consecutive
	// Watchdog intervals, the run is cancelled and fails with a
	// "campaign: watchdog:" error, which the runner's retry policy treats
	// as transient. Zero disables the watchdog.
	Watchdog time.Duration
}

// frontierEnabled resolves the scenario's effective frontier mode.
func (sc Scenario) frontierEnabled() bool { return sc.Frontier >= 0 }

// ShardThreshold is the node count from which Execute draws an MIS/LE
// scenario's coins from per-(step, node) streams by default
// (Scenario.Parallelism 0).
// The name dates from the sharded engines, for which those streams made
// every worker count byte-identical; the rule is kept so records stay the
// same. It is a pure function of the scenario, never of the machine.
const ShardThreshold = 50_000

// coinSource resolves the MIS/LE engine's p argument from the scenario:
// 1 for per-(step, node) coin streams, 0 for the shared stream.
func (sc Scenario) coinSource() int {
	if sc.Parallelism > 0 || sc.Parallelism == 0 && sc.N >= ShardThreshold {
		return 1
	}
	return 0
}

// Matrix is a declarative scenario matrix. Expand crosses all dimensions and
// drops invalid combinations.
type Matrix struct {
	// Families of graphs to sweep (default: star).
	Families []graph.Family
	// Sizes are node counts (default: 16).
	Sizes []int
	// DiameterBounds parameterize FamilyBoundedD construction; other
	// families use their own diameter and ignore this dimension (they are
	// expanded once, not once per bound). Default: {3}.
	DiameterBounds []int
	// Schedulers to sweep (default: synchronous).
	Schedulers []SchedulerSpec
	// Algorithms to sweep (default: AlgAU).
	Algorithms []Algorithm
	// Faults models to sweep (default: no injection).
	Faults []FaultSpec
	// Churns are topology-churn models to sweep (default: frozen topology).
	Churns []ChurnSpec
	// Trials per parameter point (default 1).
	Trials int
}

func (m Matrix) withDefaults() Matrix {
	if len(m.Families) == 0 {
		m.Families = []graph.Family{graph.FamilyStar}
	}
	if len(m.Sizes) == 0 {
		m.Sizes = []int{16}
	}
	if len(m.DiameterBounds) == 0 {
		m.DiameterBounds = []int{3}
	}
	if len(m.Schedulers) == 0 {
		m.Schedulers = []SchedulerSpec{Synchronous}
	}
	if len(m.Algorithms) == 0 {
		m.Algorithms = []Algorithm{AlgAU}
	}
	if len(m.Faults) == 0 {
		m.Faults = []FaultSpec{{}}
	}
	if len(m.Churns) == 0 {
		m.Churns = []ChurnSpec{{}}
	}
	if m.Trials <= 0 {
		m.Trials = 1
	}
	return m
}

// valid reports whether a combination is executable: cycles need n >= 3,
// bounded-diameter construction needs 1 <= d < n, the plain synchronous
// MIS/LE programs only run under the synchronous schedule, and topology
// churn is an AlgAU workload (the task drivers keep their graphs frozen).
func valid(f graph.Family, n, d int, s SchedulerSpec, a Algorithm, c ChurnSpec) bool {
	if n < 1 {
		return false
	}
	if f == graph.FamilyCycle && n < 3 {
		return false
	}
	if f == graph.FamilyBoundedD && (d < 1 || d >= n) {
		return false
	}
	if (a == AlgMIS || a == AlgLE) && !s.IsSynchronous() {
		return false
	}
	if c.active() && a != AlgAU {
		return false
	}
	return true
}

// Expand crosses the matrix dimensions into concrete scenarios, assigning
// indices and per-scenario seeds derived from the campaign seed.
func (m Matrix) Expand(seed int64) []Scenario {
	return Concat(seed, m)
}

// Concat expands several matrices into one campaign with globally unique
// indices and seeds (presets that sweep heterogeneous axes use this). It
// counts the scenarios first, so the list is allocated once.
func Concat(seed int64, ms ...Matrix) []Scenario {
	total := 0
	for _, m := range ms {
		for range m.withDefaults().scenarios {
			total++
		}
	}
	out := make([]Scenario, 0, total)
	for _, m := range ms {
		for sc := range m.withDefaults().scenarios {
			out = append(out, sc)
		}
	}
	return Finalize(seed, out)
}

// scenarios yields the executable points of m's cross product in campaign
// order, without index or seed (Finalize assigns both).
func (m Matrix) scenarios(yield func(Scenario) bool) {
	for _, f := range m.Families {
		for _, n := range m.Sizes {
			bounds := m.DiameterBounds
			if f != graph.FamilyBoundedD {
				// Only bounded-diameter construction consumes the bound;
				// expanding other families once per bound would duplicate
				// identical scenarios.
				bounds = []int{0}
			}
			for _, d := range bounds {
				for _, s := range m.Schedulers {
					for _, a := range m.Algorithms {
						for _, fl := range m.Faults {
							for _, ch := range m.Churns {
								if !valid(f, n, d, s, a, ch) {
									continue
								}
								for trial := 0; trial < m.Trials; trial++ {
									if !yield(Scenario{
										Family:    f,
										N:         n,
										D:         d,
										Scheduler: s,
										Algorithm: a,
										Faults:    fl,
										Churn:     ch,
										Trial:     trial,
									}) {
										return
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// Finalize assigns indices and derived seeds to hand-crafted scenario lists
// (the experiment harness builds some sweeps directly rather than through a
// Matrix). It mutates and returns scs.
func Finalize(seed int64, scs []Scenario) []Scenario {
	for i := range scs {
		scs[i].Index = i
		scs[i].Seed = deriveSeed(seed, i)
	}
	return scs
}

// deriveSeed maps (campaign seed, scenario index) to a well-mixed
// non-negative per-scenario seed with a splitmix64 finalizer, so scenario
// seeds are decorrelated regardless of how the campaign seed was chosen.
func deriveSeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(index+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}
