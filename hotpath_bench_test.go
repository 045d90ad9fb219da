package thinunison_test

// Hot-path benchmarks over scale-sweep-sized AlgAU instances. Run with
//
//	go test -bench=HotPath -benchmem
//
// and regenerate the committed artifact with
//
//	go run ./cmd/hotpathbench -out BENCH_hotpath.json
//
// BenchmarkHotPathSteadyStep must report 0 allocs/op AND 0 B/op: the steady
// step loop (scheduler buffers, signal scratch, round tracking, incremental
// stabilization check) allocates nothing. Earlier revisions reported a
// phantom ~29 B/op at 0 allocs/op; memory profiling pinned it on
// sched.RoundTracker's unbounded boundary history (one int appended per
// completed round — one per step under the synchronous schedule — whose
// amortized doubling growth billed ~29 bytes to every operation without
// ever crossing the 0.5 allocs/op rounding threshold). The tracker now
// keeps a fixed preallocated ring of the most recent boundaries, so the
// steady step is genuinely allocation- and byte-free. The fullscan variants
// measure the pre-incremental O(n·Δ)-per-step predicate for the speedup
// comparison.

import (
	"fmt"
	"testing"

	"thinunison/internal/hotpath"
)

func BenchmarkHotPathSteadyStep(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), hotpath.SteadyStep(n))
	}
}

// BenchmarkHotPathSteadyStepTraced is the steady step with full telemetry
// attached — engine counters, a transition-classifying GoodMonitor, the
// flight-recorder ring, and a sampled JSONL sink every 64th step. It must
// also report 0 allocs/op: the ring write is a preallocated-slot copy and
// the sink's amortized encoder cost stays below the rounding threshold.
// cmd/hotpathbench turns the (SteadyStep, SteadyStepTraced) pair into the
// obs series of BENCH_hotpath.json and gates it with -obs-gate.
func BenchmarkHotPathSteadyStepTraced(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), hotpath.SteadyStepTraced(n))
	}
}

func BenchmarkHotPathStabilize(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, mode := range []hotpath.Mode{hotpath.Incremental, hotpath.FullScan} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), hotpath.Stabilize(n, mode))
		}
	}
}

func BenchmarkHotPathRecovery(b *testing.B) {
	const faults = 16
	for _, n := range []int{1000, 10000} {
		for _, mode := range []hotpath.Mode{hotpath.Incremental, hotpath.FullScan} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), hotpath.Recovery(n, faults, mode))
		}
	}
}

// BenchmarkHotPathQuiescentSteadyStep is the in-tree slice of the frontier
// series (the full n=10^5 curve lives in cmd/hotpathbench): a stabilized
// instance under the starved-laggard schedule, where every step activates
// n-1 settled no-op nodes. The frontier variant must beat dense by orders
// of magnitude and report 0 allocs/op.
func BenchmarkHotPathQuiescentSteadyStep(b *testing.B) {
	const n = 10000
	for _, frontier := range []bool{false, true} {
		b.Run(hotpath.FrontierName("quiescent", n, frontier), hotpath.QuiescentSteadyStep(n, frontier))
	}
}

// BenchmarkHotPathFrontierRecovery measures post-fault-burst recovery under
// the laggard schedule with and without frontier execution: repair work is
// localized, so dense pays Θ(n) per step for a handful of updates.
func BenchmarkHotPathFrontierRecovery(b *testing.B) {
	const n, faults = 1000, 16
	for _, frontier := range []bool{false, true} {
		b.Run(hotpath.FrontierName("recovery", n, frontier), hotpath.FrontierRecovery(n, faults, frontier))
	}
}

// BenchmarkHotPathWordSteadyStep is the in-tree slice of the word-parallel
// series (the full n=10^5 pair lives in cmd/hotpathbench): the dense steady
// step with and without bit-planed batch evaluation. The word variant
// replaces the per-node sense/transition loop with a CSR OR-scan plus one
// fused EvalGood pass and feeds the monitor one certified batch per step;
// both sides must report 0 allocs/op, and cmd/hotpathbench
// -plane-gate enforces the word/scalar speedup at n=10^5.
func BenchmarkHotPathWordSteadyStep(b *testing.B) {
	const n = 10000
	for _, word := range []bool{false, true} {
		b.Run(hotpath.WordName("steady", n, word), hotpath.WordSteadyStep(n, word))
	}
}

// BenchmarkHotPathChurnRecovery is the in-tree slice of the churn series
// (the full n=10^4 pair lives in cmd/hotpathbench): one crash → drift →
// revive topology-churn cycle per op, recovery wave localized around the
// crash site. Frontier execution is reseeded from the churn path's endpoint
// invalidation and pays only for the wave; dense execution re-scans Θ(n)
// settled nodes every step of it.
func BenchmarkHotPathChurnRecovery(b *testing.B) {
	const n = 1000
	for _, frontier := range []bool{false, true} {
		b.Run(hotpath.FrontierName("churn", n, frontier), hotpath.ChurnRecovery(n, frontier))
	}
}
