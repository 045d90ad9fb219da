// Command benchmark is the repository's end-to-end benchmark. It times the
// system from outside, around calls into its public packages (campaign,
// sim, core, graph, snapshot, daemon), on six workloads:
//
//	bash benchmark/run.sh -seed 1                       # every workload
//	bash benchmark/run.sh -workload au-sync-1e5 -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -workload presets-sweep -seed 1 -trace spans.jsonl
//
// Each metric prints as one line, "workload metric value unit n=samples",
// and the last line of a single-workload run is one JSON object with the
// correctness verdict and the metrics named in BENCHMARK.json. The command
// exits non-zero when any correctness check fails. See README.md for the
// workloads, the metrics and the comparison recipe.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"thinunison/internal/obs"
)

// workload is one named set of inputs and the loop that drives them.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"presets-sweep", runPresets},
	{"au-sync-1e5", runAU(auSync)},
	{"au-rr-2e3", runAU(auRoundRobin)},
	{"au-straggler-2e4", runAU(auStraggler)},
	{"daemon-open", runDaemon},
	{"checkpoint-fork", runCheckpoint},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the workload dimensions. full is what the benchmark measures;
// the tests run every workload at a tiny scale.
type sizes struct {
	SyncN      int     `json:"sync_n"`      // au-sync node count
	RRN        int     `json:"rr_n"`        // au-rr node count
	StragglerN int     `json:"straggler_n"` // au-straggler node count
	MaxTrials  int     `json:"max_trials"`  // scenario list length of one au run
	DaemonRate float64 `json:"daemon_rate"` // daemon-open submissions per second
	DaemonSeed int     `json:"daemon_seeds"`
	CkptN      int     `json:"checkpoint_n"`
	Futures    int     `json:"futures"`    // futures per fork
	ForkEvery  int     `json:"fork_every"` // fork every n-th checkpoint
	// ForkPeriod is the nominal time of one fork period (ForkEvery
	// checkpoints and a fork) on a 2-vCPU Xeon; checkpoint-fork runs
	// seconds/ForkPeriod periods, so its work is fixed by -seconds and
	// never by the machine's speed.
	ForkPeriod time.Duration `json:"fork_period_ns"`
	SetupReps  int           `json:"setup_reps"`
}

var full = sizes{
	SyncN: 100_000, RRN: 2_000, StragglerN: 20_000, MaxTrials: 4096,
	DaemonRate: 12, DaemonSeed: 8,
	CkptN: 100_000, Futures: 8, ForkEvery: 4, ForkPeriod: 2500 * time.Millisecond,
	SetupReps: 3,
}

// bench is the state of one workload run.
type bench struct {
	seed    int64
	seconds time.Duration
	workers int
	dir     string // scratch directory, removed at exit
	sz      sizes
	tr      *tracer // nil on untraced runs

	attempted, failed int
	problems          []string
	e2e, layer        []metric
	extra             []metric // printed, not part of the JSON result
}

// op counts one attempted operation and, when it failed, why.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.problem(format, args...)
	}
}

// problem records a failed correctness check.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) correct() bool { return b.failed == 0 && len(b.problems) == 0 }

// setup runs the workload's set-up SetupReps times with identical inputs
// and reports the median as setup_s. Each repetition returns a release func
// for what it built; all but the last repetition's are called at once, the
// last one's when the workload ends (the caller defers the returned func).
func (b *bench) setup(f func() (func(), error)) (func(), error) {
	times := samples{unit: unitS}
	release := func() {}
	for i := 0; i < b.sz.SetupReps; i++ {
		release()
		t := time.Now()
		rel, err := f()
		times.add(time.Since(t))
		if err != nil {
			return func() {}, fmt.Errorf("set-up: %w", err)
		}
		release = rel
		if release == nil {
			release = func() {}
		}
	}
	b.e2e = append(b.e2e, times.pct("setup_s", 50))
	return release, nil
}

func value(name, unit string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Value: v, N: n, Measured: n > 0}
}

// ratio is num/den, measured when den > 0.
func ratio(name string, num, den float64, n int) metric {
	m := metric{Name: name, Unit: unitRatio, N: n, Measured: den > 0}
	if m.Measured {
		m.Value = num / den
	}
	return m
}

// rate is count/d per second, measured when d > 0.
func rate(name string, count float64, d time.Duration, n int) metric {
	m := metric{Name: name, Unit: unitPerS, N: n, Measured: d > 0 && n > 0}
	if m.Measured {
		m.Value = count / d.Seconds()
	}
	return m
}

// layerMetrics appends the per-layer metrics every traced workload reports:
// layer call percentiles from the tracer's histograms, engine work ratios
// from eng (the summed counters of the engines the traced pass ran), every
// layer's share of traced self time, and the tracing overhead. Counters a
// workload never touches (snapshot bytes on a sweep, daemon backlog outside
// the daemon) read 0 unless the workload appended them first.
func (b *bench) layerMetrics(eng obs.Snapshot, overhead metric) {
	t := b.tr
	n := b.attempted
	b.layer = append(b.layer,
		t.histOf("graph.build").pct("graph.build_ms_p50", unitMS, 50),
		t.histOf("sim.new").pct("sim.new_ms_p50", unitMS, 50),
		t.histOf("sim.step").pct("sim.step_us_p50", unitUS, 50),
		t.histOf("sim.step").pct("sim.step_us_p99", unitUS, 99),
		t.histOf("sim.inject_faults").pct("sim.inject_faults_ms_p50", unitMS, 50),
		ratio("sim.evaluated_per_activation", float64(eng.Evaluated), float64(eng.Activated), n),
		ratio("sim.boundary_applies_per_step", float64(eng.BoundaryApplies), float64(eng.Steps), n),
		ratio("sim.word_step_share", float64(eng.WordSteps), float64(eng.Steps), n),
		t.histOf("core.good").pct("core.good_us_p50", unitUS, 50),
		t.histOf("core.good").pct("core.good_us_p99", unitUS, 99),
		t.histOf("core.monitor_new").pct("core.monitor_new_ms_p50", unitMS, 50),
		value("core.promotions", unitCount, float64(eng.MonitorPromotions), n),
		t.histOf("campaign.encode").pct("campaign.record_encode_us_p50", unitUS, 50),
	)
	for _, d := range []declared{{"snapshot.bytes", unitBytes}, {"daemon.backlog_max", unitCount}, {"daemon.busy_rejections", unitCount}} {
		if _, ok := find(b.layer, d.Name); !ok {
			b.layer = append(b.layer, value(d.Name, d.Unit, 0, n))
		}
	}
	layers := map[string]bool{"graph": true, "sim": true, "core": true, "campaign": true, "snapshot": true, "daemon": true}
	for _, l := range t.layers() {
		layers[l] = true
	}
	for _, l := range slices.Sorted(maps.Keys(layers)) {
		b.layer = append(b.layer, value(l+".self_share", unitRatio, t.selfShare(l), n))
	}
	b.layer = append(b.layer, overhead)
}

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() metric {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return metric{Name: "peak_rss_mb", Unit: unitMiB}
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return value("peak_rss_mb", unitMiB, kb/1024, 1)
			}
		}
	}
	return metric{Name: "peak_rss_mb", Unit: unitMiB}
}

// provenance describes the machine and the run.
func provenance(seed int64, sz sizes) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       seed,
		"sizes":      sz,
		// Intra-run parallelism of the engines: multi-trial runs of 1e5
		// nodes shard at P=1 (the Runner's idle share with more scenarios
		// than workers); smaller runs and the checkpoint engine run the
		// sequential engine (P=0).
		"intra_run_p": map[string]int{
			"presets-sweep": 0, "au-sync-1e5": 1, "au-rr-2e3": 0,
			"au-straggler-2e4": 0, "daemon-open": 0, "checkpoint-fork": 0,
		},
	}
}

// declared is the metric list of BENCHMARK.json for one mode.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares: every
// workload reports all of them.
var endToEnd = []declared{
	{"setup_s", unitS},
	{"throughput_per_s", unitPerS},
	{"latency_ms_p50", unitMS},
	{"peak_rss_mb", unitMiB},
}

var perLayer = []declared{
	{"graph.build_ms_p50", unitMS},
	{"graph.self_share", unitRatio},
	{"sim.new_ms_p50", unitMS},
	{"sim.step_us_p50", unitUS},
	{"sim.inject_faults_ms_p50", unitMS},
	{"sim.evaluated_per_activation", unitRatio},
	{"sim.self_share", unitRatio},
	{"core.good_us_p50", unitUS},
	{"core.promotions", unitCount},
	{"core.self_share", unitRatio},
	{"campaign.record_encode_us_p50", unitUS},
	{"campaign.self_share", unitRatio},
	{"snapshot.bytes", unitBytes},
	{"snapshot.self_share", unitRatio},
	{"daemon.backlog_max", unitCount},
	{"daemon.self_share", unitRatio},
	{"trace.overhead_ratio", unitRatio},
}

// runOne runs one workload in this process, with b.dir as its scratch
// directory, and writes its lines and the JSON result to w. It returns an
// error when the run could not produce a valid result or a correctness
// check failed.
func runOne(w io.Writer, wl workload, b *bench, spansPath string) error {
	prov, _ := json.Marshal(provenance(b.seed, b.sz))
	fmt.Fprintf(w, "# provenance %s\n", prov)

	runErr := wl.run(b)
	if runErr == nil {
		b.e2e = append(b.e2e, peakRSS())
		frac := 0.0
		if b.attempted > 0 {
			frac = float64(b.failed) / float64(b.attempted)
		}
		b.extra = append(b.extra, value("failed_frac", "fraction", frac, b.attempted))
	}
	for _, group := range [][]metric{b.e2e, b.layer, b.extra} {
		for _, m := range group {
			fmt.Fprintf(w, "%s %s %s %s n=%d\n", wl.name, m.Name, m.formatValue(), m.Unit, m.N)
		}
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "# check failed: %s\n", p)
	}
	if b.tr != nil && spansPath != "" {
		if err := b.tr.write(spansPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if runErr != nil {
		return runErr
	}

	want, have := endToEnd, b.e2e
	if b.tr != nil {
		want, have = perLayer, b.layer
	}
	res := result{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: map[string]resultValue{}}
	for _, d := range want {
		m, ok := find(have, d.Name)
		if !ok || !m.Measured || m.Unit != d.Unit {
			return fmt.Errorf("metric %s (%s) was not measured", d.Name, d.Unit)
		}
		res.Metrics[d.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed their correctness checks", b.failed, b.attempted)
	}
	return nil
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runAll re-executes this binary once per workload, so each workload gets
// its own process and its own peak RSS, and copies each child's lines.
func runAll(seed int64, seconds, traceArg string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, wl := range workloads {
		t := traceArg
		if _, spans := traceMode(t); spans != "" {
			ext := filepath.Ext(spans)
			t = strings.TrimSuffix(spans, ext) + "." + wl.name + ext
		}
		cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", seconds, "-trace", t)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); !strings.HasPrefix(line, "{") {
				fmt.Println(line)
			}
		}
		if err := cmd.Wait(); err != nil {
			failed = append(failed, wl.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: every workload, one child process each)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured time per workload")
		traceF  = flag.String("trace", "0", "0: untraced run; 1: traced run; any other value: traced run writing its spans to that file")
	)
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	if *name == "" {
		if err := runAll(*seed, strconv.FormatFloat(*seconds, 'g', -1, 64), *traceF); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		workers: runtime.NumCPU(),
		sz:      full,
	}
	traced, spans := traceMode(*traceF)
	if traced {
		b.tr = newTracer()
	}
	if err := runInScratch(wl, b, spans); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
}

// traceMode parses -trace: "0" is the untraced run, "1" the traced run, and
// any other value the traced run with its spans written to that file.
func traceMode(v string) (traced bool, spans string) {
	switch v {
	case "0":
		return false, ""
	case "1":
		return true, ""
	}
	return true, v
}

// runInScratch runs one workload with a fresh scratch directory under
// .bench_build in the working directory, removed when it ends.
func runInScratch(wl workload, b *bench, spans string) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	return runOne(os.Stdout, wl, b, spans)
}
