// Command hotpathbench measures the simulation hot path and writes the
// BENCH_hotpath.json perf artifact: step throughput and allocation counts on
// scale-sweep-sized AlgAU instances, fault-storm recovery wall times, the
// speedup of the incremental stabilization monitor over the pre-incremental
// full-graph rescan, the frontier series (dense vs
// frontier-sparse execution on the quiescent steady step and on post-fault
// recovery; -frontier-gate fails the run if the quiescent speedup regresses
// below the given ratio), the obs series
// (steady step untraced vs fully traced — counters, instrumented monitor,
// flight ring, sampled sink; -obs-gate fails the run if tracing allocates or
// exceeds the given overhead ratio), and the word series (dense steady step
// with scalar per-node transitions vs bit-planed batch evaluation;
// -plane-gate fails the run if the word path allocates or its speedup at the
// largest measured n falls below the given ratio).
//
// Regenerate the committed artifact with
//
//	go run ./cmd/hotpathbench -out BENCH_hotpath.json
//
// The same scenarios run as go benchmarks: go test -bench=HotPath -benchmem.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"thinunison/internal/hotpath"
)

type entry struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	RoundsPerOp float64 `json:"rounds_per_op,omitempty"`
}

type speedup struct {
	Scenario      string  `json:"scenario"`
	IncrementalNs float64 `json:"incremental_ns_per_op"`
	FullScanNs    float64 `json:"fullscan_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// frontierPoint is one dense/frontier pair of the frontier series: the same
// scenario with frontier-sparse execution off and on. The runs are
// byte-identical in results (the differential harness enforces it), so the
// ratio isolates the execution-mode win.
type frontierPoint struct {
	Scenario   string  `json:"scenario"`
	N          int     `json:"n"`
	DenseNs    float64 `json:"dense_ns_per_op"`
	FrontierNs float64 `json:"frontier_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// wordPoint is one scalar/word pair of the word-parallel series: the dense
// steady step with per-node scalar transitions vs bit-planed batch
// evaluation (CSR OR-scan + fused EvalGood pass + certified batched monitor
// apply). The runs are byte-identical in results (the engine differential
// suite and cmd/campaign -check word enforce it), so the ratio isolates
// the word-parallel win; -plane-gate pins it and the word side's
// 0 allocs/op (WordAllocs is the largest over the point's samples).
type wordPoint struct {
	Scenario   string  `json:"scenario"`
	N          int     `json:"n"`
	ScalarNs   float64 `json:"scalar_ns_per_op"`
	WordNs     float64 `json:"word_ns_per_op"`
	Speedup    float64 `json:"speedup"`
	WordAllocs int64   `json:"word_allocs_per_op"`
}

// obsPoint is one off/on pair of the observability series: the steady step
// with engine counters only (they are always on and part of the baseline)
// vs the fully traced step — instrumented GoodMonitor, flight-recorder ring,
// sampled JSONL sink every 64th step. Both walk identical trajectories
// (sampling is keyed by step number), so the ratio is the cost of full
// telemetry; -obs-gate pins it and the traced side's 0 allocs/op (OnAllocs
// is the largest over the point's samples).
type obsPoint struct {
	Scenario string  `json:"scenario"`
	N        int     `json:"n"`
	OffNs    float64 `json:"off_ns_per_op"`
	OnNs     float64 `json:"on_ns_per_op"`
	Ratio    float64 `json:"ratio"`
	OnAllocs int64   `json:"on_allocs_per_op"`
}

type artifact struct {
	Tool           string          `json:"tool"`
	GoVersion      string          `json:"go_version"`
	NumCPU         int             `json:"num_cpu"`
	Benchmarks     []entry         `json:"benchmarks"`
	Speedups       []speedup       `json:"speedups"`
	FrontierSeries []frontierPoint `json:"frontier_series"`
	// ChurnSeries is the topology-churn recovery pair: one crash → drift →
	// revive cycle per op (see hotpath.ChurnRecovery), frontier-sparse
	// execution vs forced dense re-scan. Both sides walk byte-identical
	// trajectories (the churn differential guard enforces it), so the
	// ratio isolates the execution-mode win on churn recovery.
	ChurnSeries []frontierPoint `json:"churn_series"`
	// ObsSeries is the telemetry-overhead series: steady step untraced vs
	// fully traced (see obsPoint).
	ObsSeries []obsPoint `json:"obs_series"`
	// WordSeries is the word-parallel series: dense steady step with scalar
	// per-node transitions vs bit-planed batch evaluation (see wordPoint).
	WordSeries []wordPoint `json:"word_series"`
}

func measure(name string, n, iters int, fn func(b *testing.B)) entry {
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", iters)); err != nil {
		panic(err)
	}
	r := testing.Benchmark(fn)
	e := entry{
		Name:        name,
		N:           n,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if rounds, ok := r.Extra["rounds/op"]; ok {
		e.RoundsPerOp = rounds
	}
	fmt.Fprintf(os.Stderr, "%-40s %10.0f ns/op %6d allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	return e
}

// gateRepeats is how many times each gated (n = 10^5) pair is measured; its
// gate reads the median ratio. Single-sample ratios have crossed the obs
// and plane bounds on noise alone.
const gateRepeats = 5

// pairSample is one measurement of both sides of a series point; ratio is
// the point's figure of merit, a's time over b's.
type pairSample struct{ a, b entry }

func (p pairSample) ratio() float64 { return p.a.NsPerOp / p.b.NsPerOp }

// measurePair measures sides a and b of one series point reps times,
// alternating which side runs first, prints every ratio of a repeated
// point, and returns the sample with the median ratio and the largest
// allocs/op each side reported. The series record the median sample.
func measurePair(reps, n, iters int, nameA string, fnA func(*testing.B), nameB string, fnB func(*testing.B)) (med pairSample, allocsA, allocsB int64) {
	samples := make([]pairSample, reps)
	var shown []string
	for i := range samples {
		s := &samples[i]
		if i%2 == 0 {
			s.a = measure(nameA, n, iters, fnA)
			s.b = measure(nameB, n, iters, fnB)
		} else {
			s.b = measure(nameB, n, iters, fnB)
			s.a = measure(nameA, n, iters, fnA)
		}
		allocsA, allocsB = max(allocsA, s.a.AllocsPerOp), max(allocsB, s.b.AllocsPerOp)
		shown = append(shown, fmt.Sprintf("%.2fx", s.ratio()))
	}
	if reps > 1 {
		fmt.Fprintf(os.Stderr, "%s / %s ratios: %s\n", nameA, nameB, strings.Join(shown, " "))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].ratio() < samples[j].ratio() })
	return samples[reps/2], allocsA, allocsB
}

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "output path for the JSON artifact")
	quick := flag.Bool("quick", false, "skip the slowest (n=10000 full-scan) measurements and shrink the iteration counts")
	gate := flag.Float64("frontier-gate", 0, "fail (exit 1) if the quiescent-steady-step frontier speedup at the largest measured n falls below this ratio (0 disables); CI uses 10 to catch a regression back to Θ(n) steps")
	obsGate := flag.Float64("obs-gate", 0, "fail (exit 1) if full tracing allocates on the steady step, or slows the largest measured n down by more than this ratio (0 disables); CI uses 1.5")
	planeGate := flag.Float64("plane-gate", 0, "fail (exit 1) if word-parallel execution allocates on the dense steady step, or its speedup over scalar at the largest measured n falls below this ratio (0 disables); CI uses 3")
	testing.Init()
	flag.Parse()

	var a artifact
	a.Tool = "cmd/hotpathbench"
	a.GoVersion = runtime.Version()
	a.NumCPU = runtime.NumCPU()

	// Steady-state step throughput: the allocation-free inner loop, untraced
	// (engine counters are always on) and fully traced. Each pair becomes a
	// point of the obs series.
	for _, n := range []int{1000, 10000, 100000} {
		iters, reps := 2000, 1
		if n >= 100000 {
			iters, reps = 100, gateRepeats
		}
		med, onAllocs, _ := measurePair(reps, n, iters,
			fmt.Sprintf("steady-step-traced/n=%d", n), hotpath.SteadyStepTraced(n),
			hotpath.Name("steady-step", n, hotpath.Incremental), hotpath.SteadyStep(n))
		on, off := med.a, med.b
		a.Benchmarks = append(a.Benchmarks, off, on)
		a.ObsSeries = append(a.ObsSeries, obsPoint{
			Scenario: "steady-step",
			N:        n,
			OffNs:    off.NsPerOp,
			OnNs:     on.NsPerOp,
			Ratio:    med.ratio(),
			OnAllocs: onAllocs,
		})
	}

	// Fault-storm recovery with both predicate modes: the ratio is the
	// incremental monitor's win.
	record := func(scenario string, n, iters int, fn func(mode hotpath.Mode) func(b *testing.B)) {
		inc := measure(hotpath.Name(scenario, n, hotpath.Incremental), n, iters, fn(hotpath.Incremental))
		full := measure(hotpath.Name(scenario, n, hotpath.FullScan), n, iters, fn(hotpath.FullScan))
		a.Benchmarks = append(a.Benchmarks, inc, full)
		a.Speedups = append(a.Speedups, speedup{
			Scenario:      fmt.Sprintf("%s/n=%d", scenario, n),
			IncrementalNs: inc.NsPerOp,
			FullScanNs:    full.NsPerOp,
			Speedup:       full.NsPerOp / inc.NsPerOp,
		})
	}
	const faults = 16
	record("recovery", 1000, 10, func(m hotpath.Mode) func(b *testing.B) {
		return hotpath.Recovery(1000, faults, m)
	})
	if !*quick {
		// One iteration is enough: a full-scan recovery at n=10000 walks
		// ~n nodes per round-robin step and takes seconds per burst.
		record("recovery", 10000, 1, func(m hotpath.Mode) func(b *testing.B) {
			return hotpath.Recovery(10000, faults, m)
		})
	}

	// Frontier series: dense vs frontier-sparse execution on the quiescent
	// steady step (the regime self-stabilization workloads spend most of
	// their life in) and on post-fault-burst recovery. The pairs walk
	// byte-identical trajectories, so the ratio is pure execution-mode win.
	frontierPair := func(scenario string, n, iters, reps int, fn func(front bool) func(b *testing.B)) frontierPoint {
		med, _, _ := measurePair(reps, n, iters,
			hotpath.FrontierName(scenario, n, false), fn(false),
			hotpath.FrontierName(scenario, n, true), fn(true))
		dense, front := med.a, med.b
		a.Benchmarks = append(a.Benchmarks, dense, front)
		fp := frontierPoint{
			Scenario:   scenario,
			N:          n,
			DenseNs:    dense.NsPerOp,
			FrontierNs: front.NsPerOp,
			Speedup:    med.ratio(),
		}
		a.FrontierSeries = append(a.FrontierSeries, fp)
		return fp
	}
	quiesceIters := 50
	if *quick {
		quiesceIters = 10
	}
	frontierPair("quiescent-steady-step", 10000, quiesceIters*4, 1, func(front bool) func(b *testing.B) {
		return hotpath.QuiescentSteadyStep(10000, front)
	})
	headline := frontierPair("quiescent-steady-step", 100000, quiesceIters, gateRepeats, func(front bool) func(b *testing.B) {
		return hotpath.QuiescentSteadyStep(100000, front)
	})
	recoveryIters := 10
	if *quick {
		recoveryIters = 3
	}
	frontierPair("post-fault-recovery", 10000, recoveryIters, 1, func(front bool) func(b *testing.B) {
		return hotpath.FrontierRecovery(10000, faults, front)
	})

	// Word-parallel series: the dense steady step (every node fires its
	// unison clock every step — the worst case for sparse execution and the
	// best case for batch evaluation) with scalar per-node transitions vs
	// bit-planed word evaluation. The pairs walk byte-identical trajectories
	// (engine differentials and cmd/campaign -check word enforce it), so
	// the ratio is the pure word-parallel win.
	wordPair := func(n, iters, reps int) wordPoint {
		med, _, wordAllocs := measurePair(reps, n, iters,
			hotpath.WordName("dense-steady-step", n, false), hotpath.WordSteadyStep(n, false),
			hotpath.WordName("dense-steady-step", n, true), hotpath.WordSteadyStep(n, true))
		scalar, word := med.a, med.b
		a.Benchmarks = append(a.Benchmarks, scalar, word)
		wp := wordPoint{
			Scenario:   "dense-steady-step",
			N:          n,
			ScalarNs:   scalar.NsPerOp,
			WordNs:     word.NsPerOp,
			Speedup:    med.ratio(),
			WordAllocs: wordAllocs,
		}
		a.WordSeries = append(a.WordSeries, wp)
		return wp
	}
	wordIters := 100
	if *quick {
		wordIters = 30
	}
	wordPair(10000, wordIters*5, 1)
	wordHeadline := wordPair(100000, wordIters, gateRepeats)

	// Churn series: one crash → drift → revive topology-churn cycle per op.
	churnPair := func(n, iters int) {
		dense := measure(hotpath.FrontierName("churn-recovery", n, false), n, iters, hotpath.ChurnRecovery(n, false))
		front := measure(hotpath.FrontierName("churn-recovery", n, true), n, iters, hotpath.ChurnRecovery(n, true))
		a.Benchmarks = append(a.Benchmarks, dense, front)
		a.ChurnSeries = append(a.ChurnSeries, frontierPoint{
			Scenario:   "churn-recovery",
			N:          n,
			DenseNs:    dense.NsPerOp,
			FrontierNs: front.NsPerOp,
			Speedup:    dense.NsPerOp / front.NsPerOp,
		})
	}
	churnIters := 10
	if *quick {
		churnIters = 3
	}
	churnPair(1000, churnIters*2)
	churnPair(10000, churnIters)

	if *gate > 0 && headline.Speedup < *gate {
		fmt.Fprintf(os.Stderr, "frontier gate FAILED: quiescent-steady-step/n=%d median speedup %.2fx < required %.2fx (steady steps regressed toward Θ(n))\n",
			headline.N, headline.Speedup, *gate)
		os.Exit(1)
	}
	if *gate > 0 {
		fmt.Fprintf(os.Stderr, "frontier gate OK: quiescent-steady-step/n=%d median speedup %.2fx >= %.2fx\n",
			headline.N, headline.Speedup, *gate)
	}

	if *obsGate > 0 {
		// Allocation pin on every sample of every point; ratio pin on the
		// median of the largest n's samples, whose steps are the longest.
		for _, p := range a.ObsSeries {
			if p.OnAllocs > 0 {
				fmt.Fprintf(os.Stderr, "obs gate FAILED: steady-step-traced/n=%d allocates %d allocs/op (tracing must stay allocation-free)\n",
					p.N, p.OnAllocs)
				os.Exit(1)
			}
		}
		last := a.ObsSeries[len(a.ObsSeries)-1]
		if last.Ratio > *obsGate {
			fmt.Fprintf(os.Stderr, "obs gate FAILED: steady-step/n=%d median traced/untraced ratio %.2fx > allowed %.2fx\n",
				last.N, last.Ratio, *obsGate)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obs gate OK: tracing allocation-free, steady-step/n=%d median ratio %.2fx <= %.2fx\n",
			last.N, last.Ratio, *obsGate)
	}

	if *planeGate > 0 {
		for _, p := range a.WordSeries {
			if p.WordAllocs > 0 {
				fmt.Fprintf(os.Stderr, "plane gate FAILED: %s/n=%d word path allocates %d allocs/op (word-parallel steps must stay allocation-free)\n",
					p.Scenario, p.N, p.WordAllocs)
				os.Exit(1)
			}
		}
		if wordHeadline.Speedup < *planeGate {
			fmt.Fprintf(os.Stderr, "plane gate FAILED: %s/n=%d median word/scalar speedup %.2fx < required %.2fx\n",
				wordHeadline.Scenario, wordHeadline.N, wordHeadline.Speedup, *planeGate)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "plane gate OK: word path allocation-free, %s/n=%d median speedup %.2fx >= %.2fx\n",
			wordHeadline.Scenario, wordHeadline.N, wordHeadline.Speedup, *planeGate)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&a); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
