package hotpath_test

import (
	"flag"
	"testing"

	"thinunison/internal/hotpath"
)

// TestNames pins the canonical benchmark identifiers — the JSON artifact,
// the go benchmarks and the CI gate all key on these strings.
func TestNames(t *testing.T) {
	cases := []struct{ got, want string }{
		{hotpath.Name("steady-step", 1000, hotpath.Incremental), "steady-step/n=1000/incremental"},
		{hotpath.Name("stabilize", 10, hotpath.FullScan), "stabilize/n=10/fullscan"},
		{hotpath.FrontierName("quiescent-steady-step", 100000, true), "quiescent-steady-step/n=100000/frontier"},
		{hotpath.FrontierName("churn-recovery", 1000, false), "churn-recovery/n=1000/dense"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("name = %q, want %q", c.got, c.want)
		}
	}
	if hotpath.Incremental.String() != "incremental" || hotpath.FullScan.String() != "fullscan" {
		t.Error("Mode.String broken")
	}
}

// runScenario executes a benchmark closure for a single iteration through
// the real testing harness (the same path cmd/hotpathbench uses), so a
// scenario builder that b.Fatals — bad instance construction, failed
// stabilization, a diverging monitor — fails this test instead of rotting
// until the next artifact regeneration.
func runScenario(t *testing.T, name string, fn func(b *testing.B)) {
	t.Helper()
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := flag.Set("test.benchtime", prev); err != nil {
			t.Fatal(err)
		}
	}()
	r := testing.Benchmark(fn)
	if r.N == 0 {
		t.Fatalf("scenario %s did not run (b.Fatal inside the builder?)", name)
	}
	if r.T <= 0 {
		t.Fatalf("scenario %s reported non-positive duration", name)
	}
}

// TestScenarioTable sanity-runs one small instance of every scenario
// builder the artifact tool measures.
func TestScenarioTable(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario table sanity runs full stabilizations; skipped in -short")
	}
	const n = 256
	scenarios := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"steady-step", hotpath.SteadyStep(n)},
		{"stabilize/incremental", hotpath.Stabilize(n, hotpath.Incremental)},
		{"stabilize/fullscan", hotpath.Stabilize(n, hotpath.FullScan)},
		{"recovery/incremental", hotpath.Recovery(n, 4, hotpath.Incremental)},
		{"quiescent/dense", hotpath.QuiescentSteadyStep(n, false)},
		{"quiescent/frontier", hotpath.QuiescentSteadyStep(n, true)},
		{"frontier-recovery/frontier", hotpath.FrontierRecovery(n, 4, true)},
		{"churn-recovery/dense", hotpath.ChurnRecovery(n, false)},
		{"churn-recovery/frontier", hotpath.ChurnRecovery(n, true)},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { runScenario(t, sc.name, sc.fn) })
	}
}

// TestChurnRecoveryDeterministic pins the churn scenario's trajectory
// equivalence directly: the dense and frontier variants must report the
// same recovery rounds per op (they walk byte-identical executions; only
// wall time may differ).
func TestChurnRecoveryDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full stabilizations; skipped in -short")
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "3x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", prev)
	dense := testing.Benchmark(hotpath.ChurnRecovery(256, false))
	front := testing.Benchmark(hotpath.ChurnRecovery(256, true))
	dr, fr := dense.Extra["rounds/op"], front.Extra["rounds/op"]
	if dr != fr {
		t.Fatalf("dense %v rounds/op, frontier %v rounds/op — trajectories diverged", dr, fr)
	}
	if dr <= 0 {
		t.Fatalf("churn recovery did no work: %v rounds/op", dr)
	}
}
