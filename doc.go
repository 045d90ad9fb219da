// Package thinunison is a Go implementation of the self-stabilizing stone
// age algorithms of Emek & Keren, "A Thin Self-Stabilizing Asynchronous
// Unison Algorithm with Applications to Fault Tolerant Biological Networks"
// (PODC 2021).
//
// The centerpiece is AlgAU, a deterministic self-stabilizing asynchronous
// unison (AU) algorithm for graphs of diameter at most D whose state space
// is O(D) — independent of the number of nodes — and whose stabilization
// time is O(D³) rounds (Theorem 1.1). On top of it the package provides:
//
//   - a self-stabilizing synchronizer (Corollary 1.2) lifting any
//     synchronous self-stabilizing stone age algorithm to asynchronous
//     schedulers;
//   - synchronous self-stabilizing leader election (Theorem 1.3) and
//     maximal independent set (Theorem 1.4) algorithms with O(D) states,
//     built on a Restart module (Theorem 3.1);
//   - execution substrates: deterministic step engines under adversarial
//     schedulers, and a goroutine-per-node concurrent runtime;
//   - the failed reset-based AU attempt of Appendix A together with its
//     Figure 2 live-lock, for comparison;
//   - a full experiment harness regenerating every table and figure of the
//     paper (internal/experiments indexes them; cmd/experiments -run
//     regenerates any subset);
//   - a parallel scenario-campaign subsystem (internal/campaign, driven by
//     cmd/campaign) sweeping graph family × size × diameter bound ×
//     scheduler × fault model × algorithm on a worker pool with
//     deterministic per-scenario seeds and JSONL/CSV output;
//   - an incremental, allocation-free simulation hot path: stabilization
//     predicates are tracked by violation-count monitors updated from each
//     step's activation set (core.GoodMonitor, syncsim.Checker) instead of
//     per-step full-graph rescans, the graph substrate uses a CSR adjacency
//     layout, and the steady step loop performs zero allocations (see
//     BENCH_hotpath.json, regenerated by cmd/hotpathbench);
//   - two coin sources for the coin-driven MIS/LE programs, which run on
//     the asyncsim engine (asyncsim.NewParallel): the engine's single rng
//     stream drawn in ascending activation order, or counter-based
//     per-(step, node) streams (randx.NodeSeed) that do not depend on
//     execution order. Campaigns pick per-node streams from
//     campaign.ShardThreshold nodes. The AU engine (internal/sim) has one
//     coin stream and ignores sim.Options.Parallelism; AlgAU draws no coins
//     anyway;
//   - an event-driven frontier-sparse mode for AlgAU (sim.Options.Frontier,
//     on by default in campaigns): the engine keeps a per-node settled flag
//     — δ on the node's current signal is certified a coin-free self-loop
//     (sa.SelfLooper) — invalidated in O(deg v) when a neighborhood changes,
//     so a near-quiescent step costs O(|frontier|) instead of Θ(n) while
//     staying byte-identical to dense runs (the
//     frontier differential harness and the frontier cell of cmd/campaign
//     -check enforce it; see the frontier series of BENCH_hotpath.json for
//     the quiescent-regime speedups);
//   - live topology churn in the AU engine (graph.Delta, sim.Options.Churn,
//     sim.Engine.ApplyDelta): the graph mutates mid-run at step boundaries
//     — stochastic edge flips and cell crash/revive, with connectivity and
//     diameter-drift guards — through one amortized
//     in-place CSR re-compaction, with every incremental layer repaired in
//     the same motion (frontier re-seeding, O(1) GoodMonitor counter repair
//     via sim.TopologyObserver). Churn runs stay byte-identical
//     across execution modes (cmd/campaign -check frontier on the bio-churn
//     preset enforces it), and internal/mc proves
//     re-stabilization after every single-edge flip exhaustively on n <= 4
//     instances;
//   - zero-allocation engine telemetry (internal/obs, a std-lib-only leaf
//     shared by every engine): struct-of-atomics counter sets, sampled step
//     tracing keyed by the deterministic step number (so attaching a tracer
//     cannot perturb a trajectory — cmd/campaign -check runs traced in CI),
//     and a last-N-steps flight recorder dumped with an attributing
//     reason header when a run fails. Exposed as cmd/campaign -metrics /
//     -progress / -trace-every / -flight / -debug-addr (expvar + pprof) and
//     the equivalent cmd/unisonsim flags; the steady step stays 0 allocs/op
//     with the full stack attached (the obs series of BENCH_hotpath.json,
//     gated by hotpathbench -obs-gate);
//   - a word-parallel hot path (sim.Options.WordParallel, campaign -word):
//     the hot state is one one-hot self-word per node plus one goodness
//     plane, neighborhood signals come from a batched CSR OR-scan
//     (sa.BuildSignals), and a precompiled transition table
//     (core.AU.Kernel) evaluates 64 nodes' transitions and goodness per word
//     pass with math/bits intrinsics; certified full steps feed the
//     GoodMonitor one plain batch (a raw-mirror refresh) instead of n
//     per-node updates. Word-parallel runs are byte-identical to scalar runs
//     (the engine differentials and the word cells of cmd/campaign -check
//     enforce it), the dense steady step stays 0 allocs/op, and the
//     word/scalar speedup at n = 10^5 is gated by hotpathbench -plane-gate
//     (the word series of BENCH_hotpath.json); algorithms without a one-word
//     kernel (|Q| > 64, coin-driven variants) fall back to scalar;
//   - a self-stabilizing harness (internal/failpoint, a std-lib-only leaf):
//     deterministic seeded fault injection at named sites (disarmed cost: one
//     atomic load, 0 allocs) drives panic-isolated campaign workers with
//     bounded retry/backoff, a per-scenario stall watchdog and deadline, and
//     crash-safe artifact IO — CRC-32C-verified snapshot containers written
//     atomically (temp file + fsync + rename) and a torn-write-self-repairing
//     resumable JSONL log with a CRC sidecar. The AU engine's checkpoint
//     (sim.SaveState, the repo's one engine checkpoint) restores
//     byte-identically in every mode, refuses an engine with churn and
//     accepts only states a run can reach; the restore matrix runs in go
//     test (sim.TestRestoreDifferential, TestRestoreRejectsInconsistentState
//     and FuzzRestore). The chaos cell of
//     cmd/campaign -check pins it end to end: a preset under a seeded fault
//     schedule with a kill-and-resume must produce records byte-identical
//     to an undisturbed run;
//   - a daemon mode (internal/daemon, served by cmd/unisond; thin client
//     internal/daemonclient behind cmd/unisonctl):
//     a long-lived server on a unix-domain socket speaking length-prefixed
//     JSON frames (internal/daemon/wire, golden-pinned and fuzzed), running
//     submissions on a bounded engine fleet with admission control.
//     Attached clients get a lossless record stream with cursor replay plus
//     latest-wins metric snapshots — slow readers accumulate dropped-frame
//     counters, never block engines — and run state persists through the
//     crash-safe resumable journal, so a killed daemon restarted on the
//     same state dir resumes every in-flight run to records byte-identical
//     to an uninterrupted one (the remote cell of cmd/campaign -check and
//     the kill-and-restart tests pin it).
//
// The engine-mode matrix, then, is: dense (the reference semantics),
// frontier-sparse (Options.Frontier, near-quiescent workloads),
// word-parallel (Options.WordParallel, dense batch evaluation) and topology
// churn (Options.Churn). Every run executes on one goroutine; parallelism
// comes from running many scenarios at once. In internal/sim the modes are
// not separate code paths but plugs of one step loop — the activation
// source (A_t or A_t ∩ frontier) and the evaluator (scalar δ or the word
// kernel), with δ drawing from the engine's one coin stream — so they
// compose freely and all produce byte-identical trajectories for equal
// seeds. A
// dense scalar reference stepper in the sim tests scores every combination,
// and at campaign level campaign.Differential scores every mode, the daemon
// and a fault-injected resume against the dense scalar path (cmd/campaign
// -check, in CI).
//
// The root package is a high-level facade; the implementation lives in the
// internal packages (internal/core is AlgAU itself). Quick start:
//
//	g, _ := thinunison.Cycle(8)
//	u, _ := thinunison.NewUnison(g, thinunison.WithSeed(1))
//	rounds, _ := u.RunUntilStabilized(100_000)
//	fmt.Println("synchronized after", rounds, "rounds; clocks:", u.Clocks())
package thinunison
